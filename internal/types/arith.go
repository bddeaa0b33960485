package types

import "fmt"

// Arithmetic on values. NULL operands propagate NULL (SQL semantics).
// INT op INT stays INT except division by a non-divisor which promotes to
// FLOAT only for '/' when remainder is non-zero? No — the engine follows
// integer SQL semantics: INT / INT is integer division; use FLOAT operands
// for real division. Mixed INT/FLOAT promotes to FLOAT.

// Add returns a + b. Strings concatenate.
func Add(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.Kind() == KindString && b.Kind() == KindString {
		return NewString(a.s + b.s), nil
	}
	return numericOp(a, b, "+")
}

// Sub returns a - b.
func Sub(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	return numericOp(a, b, "-")
}

// Mul returns a * b.
func Mul(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	return numericOp(a, b, "*")
}

// Div returns a / b. Division by zero is an error.
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	return numericOp(a, b, "/")
}

// Mod returns a % b for integers.
func Mod(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	ai, err := a.AsInt()
	if err != nil {
		return Null, err
	}
	bi, err := b.AsInt()
	if err != nil {
		return Null, err
	}
	if bi == 0 {
		return Null, fmt.Errorf("types: modulo by zero")
	}
	return NewInt(ai % bi), nil
}

// Neg returns -a.
func Neg(a Value) (Value, error) {
	switch k := a.Kind(); k {
	case KindNull:
		return Null, nil
	case KindInt:
		return NewInt(-a.Int()), nil
	case KindFloat:
		return NewFloat(-a.Float()), nil
	default:
		return Null, fmt.Errorf("types: cannot negate %s", k)
	}
}

func numericOp(a, b Value, op string) (Value, error) {
	ak, bk := a.Kind(), b.Kind()
	if !numericKind(ak) || !numericKind(bk) {
		return Null, fmt.Errorf("types: %s not defined on %s and %s", op, ak, bk)
	}
	if ak == KindInt && bk == KindInt {
		ai, bi := a.Int(), b.Int()
		switch op {
		case "+":
			return NewInt(ai + bi), nil
		case "-":
			return NewInt(ai - bi), nil
		case "*":
			return NewInt(ai * bi), nil
		case "/":
			if bi == 0 {
				return Null, fmt.Errorf("types: division by zero")
			}
			return NewInt(ai / bi), nil
		}
	}
	af, _ := a.AsFloat()
	bf, _ := b.AsFloat()
	switch op {
	case "+":
		return NewFloat(af + bf), nil
	case "-":
		return NewFloat(af - bf), nil
	case "*":
		return NewFloat(af * bf), nil
	case "/":
		if bf == 0 {
			return Null, fmt.Errorf("types: division by zero")
		}
		return NewFloat(af / bf), nil
	}
	return Null, fmt.Errorf("types: unknown operator %q", op)
}
