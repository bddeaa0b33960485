package engine

import (
	"fmt"
	"math"
	"strings"
	"time"

	"ediflow/internal/types"
)

// builtinScalars names every built-in scalar function: those callScalar
// implements, and COALESCE, which the VM compiles to its own
// short-circuiting instruction. vmFunc consults it before the user
// registry, so a built-in cannot be shadowed.
var builtinScalars = map[string]bool{
	"COALESCE": true, "ABS": true, "LENGTH": true, "UPPER": true,
	"LOWER": true, "TRIM": true, "SUBSTR": true, "CONCAT": true,
	"ROUND": true, "FLOOR": true, "CEIL": true, "SQRT": true,
	"NOW": true, "NULLIF": true, "IIF": true,
	"CAST_INT": true, "CAST_FLOAT": true, "CAST_STRING": true,
}

// callScalar dispatches a scalar function on already-evaluated arguments.
func callScalar(name string, args []types.Value) (types.Value, error) {
	argn := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("engine: %s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "ABS":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		v := args[0]
		if v.IsNull() {
			return types.Null, nil
		}
		switch v.Kind() {
		case types.KindInt:
			if v.Int() < 0 {
				return types.NewInt(-v.Int()), nil
			}
			return v, nil
		case types.KindFloat:
			return types.NewFloat(math.Abs(v.Float())), nil
		}
		return types.Null, fmt.Errorf("engine: ABS of %s", v.Kind())
	case "LENGTH":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewInt(int64(len([]rune(args[0].AsString())))), nil
	case "UPPER":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToUpper(args[0].AsString())), nil
	case "LOWER":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.ToLower(args[0].AsString())), nil
	case "TRIM":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		return types.NewString(strings.TrimSpace(args[0].AsString())), nil
	case "SUBSTR":
		// SUBSTR(s, start[, length]), 1-based like SQL.
		if len(args) != 2 && len(args) != 3 {
			return types.Null, fmt.Errorf("engine: SUBSTR takes 2 or 3 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return types.Null, nil
		}
		s := []rune(args[0].AsString())
		start, err := args[1].AsInt()
		if err != nil {
			return types.Null, err
		}
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return types.NewString(""), nil
		}
		end := int64(len(s))
		if len(args) == 3 && !args[2].IsNull() {
			n, err := args[2].AsInt()
			if err != nil {
				return types.Null, err
			}
			if n < 0 {
				n = 0
			}
			if start-1+n < end {
				end = start - 1 + n
			}
		}
		return types.NewString(string(s[start-1 : end])), nil
	case "CONCAT":
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(a.AsString())
		}
		return types.NewString(sb.String()), nil
	case "ROUND":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(math.Round(f)), nil
	case "FLOOR":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(math.Floor(f)), nil
	case "CEIL":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return types.Null, err
		}
		return types.NewFloat(math.Ceil(f)), nil
	case "SQRT":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return types.Null, err
		}
		if f < 0 {
			return types.Null, fmt.Errorf("engine: SQRT of negative value")
		}
		return types.NewFloat(math.Sqrt(f)), nil
	case "NOW":
		if err := argn(0); err != nil {
			return types.Null, err
		}
		return types.NewTime(time.Now()), nil
	case "NULLIF":
		if err := argn(2); err != nil {
			return types.Null, err
		}
		if types.Equal(args[0], args[1]) {
			return types.Null, nil
		}
		return args[0], nil
	case "IIF":
		if err := argn(3); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return args[2], nil
		}
		c, err := args[0].AsBool()
		if err != nil {
			return types.Null, err
		}
		if c {
			return args[1], nil
		}
		return args[2], nil
	case "CAST_INT":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		return args[0].CoerceTo(types.KindInt)
	case "CAST_FLOAT":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		return args[0].CoerceTo(types.KindFloat)
	case "CAST_STRING":
		if err := argn(1); err != nil {
			return types.Null, err
		}
		return args[0].CoerceTo(types.KindString)
	}
	return types.Null, fmt.Errorf("engine: unknown function %s", name)
}
