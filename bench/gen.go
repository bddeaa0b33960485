package main

import (
	"encoding/binary"
	"encoding/hex"
	"hash"
	"hash/fnv"
	"math"

	"ediflow/internal/types"
)

// rng is splitmix64. The benchmark owns its generator so that the inputs a
// seed produces never change with the Go release or with any package of
// the program under test.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher–Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// liveSet is the set of row keys a workload's model holds, with O(1) add,
// drop and uniform pick.
type liveSet struct {
	ids []int64
	at  map[int64]int
}

func newLiveSet() *liveSet { return &liveSet{at: map[int64]int{}} }

func (l *liveSet) len() int { return len(l.ids) }

func (l *liveSet) add(id int64) {
	l.at[id] = len(l.ids)
	l.ids = append(l.ids, id)
}

func (l *liveSet) drop(id int64) {
	at, last := l.at[id], l.ids[len(l.ids)-1]
	l.ids[at] = last
	l.at[last] = at
	l.ids = l.ids[:len(l.ids)-1]
	delete(l.at, id)
}

func (l *liveSet) pick(r *rng) int64 { return l.ids[r.intn(len(l.ids))] }

// editKind is one kind of DML statement of a write mix.
type editKind int

const (
	editUpdate editKind = iota
	editInsert
	editDelete
)

var kindNames = [...]string{"update", "insert", "delete"}

// dealer deals statement kinds from a fixed mix: the mix is shuffled and
// dealt out, then shuffled again, so every seed issues exactly the same
// number of each kind however long it runs.
type dealer struct {
	mix  []editKind
	hand []editKind
	r    *rng
}

func (d *dealer) next() editKind {
	if len(d.hand) == 0 {
		d.hand = append(d.hand, d.mix...)
		shuffle(d.r, d.hand)
	}
	k := d.hand[len(d.hand)-1]
	d.hand = d.hand[:len(d.hand)-1]
	return k
}

// mix builds a dealer's mix of u UPDATEs, i INSERTs and d DELETEs.
func mix(u, i, d int) []editKind {
	var out []editKind
	for ; u > 0; u-- {
		out = append(out, editUpdate)
	}
	for ; i > 0; i-- {
		out = append(out, editInsert)
	}
	for ; d > 0; d-- {
		out = append(out, editDelete)
	}
	return out
}

// inputHash fingerprints the statement stream a workload feeds the program:
// every SQL text and every argument, in order. Same seed ⇒ same hash; the
// program sees nothing else of the seed.
type inputHash struct {
	h   hash.Hash64
	buf []byte
}

func newInputHash() *inputHash { return &inputHash{h: fnv.New64a()} }

func (ih *inputHash) stmt(sql string, args ...types.Value) {
	ih.h.Write([]byte(sql))
	ih.h.Write([]byte{0})
	for i := range args {
		ih.buf = ih.buf[:0]
		v := &args[i]
		switch v.LaneKind() {
		case types.KindInt:
			ih.buf = binary.LittleEndian.AppendUint64(append(ih.buf, 'i'), uint64(v.LaneInt()))
		case types.KindFloat:
			ih.buf = binary.LittleEndian.AppendUint64(append(ih.buf, 'f'), math.Float64bits(v.LaneFloat()))
		default:
			ih.buf = append(append(ih.buf, 's'), v.AsString()...)
		}
		ih.h.Write(ih.buf)
	}
}

func (ih *inputHash) sum() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], ih.h.Sum64())
	return hex.EncodeToString(b[:])
}

// checksum folds result rows into one order-sensitive 64-bit value without
// allocating, so recording what a query returned costs the measured region
// almost nothing. The driver's model produces the same fold from the seeded
// data; the two must be equal.
type checksum uint64

const fnvPrime = 1099511628211

func (c *checksum) u64(x uint64) {
	h := uint64(*c)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	*c = checksum(h)
}

func (c *checksum) str(s string) {
	h := uint64(*c)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	*c = checksum(h ^ 0xff)
}

func (c *checksum) value(v *types.Value) {
	switch v.LaneKind() {
	case types.KindInt:
		c.u64(uint64(v.LaneInt()))
	case types.KindFloat:
		c.u64(math.Float64bits(v.LaneFloat()))
	case types.KindNull:
		c.u64(0x6e756c6c)
	default:
		c.str(v.AsString())
	}
}
