package bb

import (
	"math"
	"testing"

	"evotree/internal/matrix"
)

// fuzzMatrix decodes fuzz bytes into a metric-checkable matrix of 3..9
// species: distances are half-integers 0..7.5, so ties and zeros are
// common, and a row whose lead byte has its top bit set copies an earlier
// row (a duplicate species). It also returns the unread bytes.
func fuzzMatrix(data []byte) (*matrix.Matrix, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 3 + int(next())%7
	m := matrix.New(n)
	for i := 1; i < n; i++ {
		lead := next()
		if lead&0x80 != 0 {
			src := int(lead) % i
			for j := 0; j < i; j++ {
				if j != src {
					m.Set(i, j, m.At(src, j))
				}
			}
			m.Set(i, src, float64(lead>>4&7)/2)
			continue
		}
		m.Set(i, 0, float64(lead%16)/2)
		for j := 1; j < i; j++ {
			m.Set(i, j, float64(next()%16)/2)
		}
	}
	return m, data
}

// FuzzPropagatedPrune follows one BBT path chosen by the fuzz bytes and
// requires the yes/no prune test to agree with pruning on the full
// propagation bound at every node on it and every sibling on the way.
func FuzzPropagatedPrune(f *testing.F) {
	f.Add([]byte{6, 4, 8, 2, 8, 8, 2, 3, 0, 1, 5})
	f.Add([]byte{9, 0x81, 0x92, 0xa3, 2, 4, 6, 8, 1, 3, 5, 7, 0, 0, 0})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{8, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, rest := fuzzMatrix(data)
		p, err := NewProblem(m, true)
		if err != nil {
			t.Fatal(err)
		}
		np := p.NewPool()
		v := p.Root()
		checkPruneMatchesBound(t, p, v, np)
		for i := 0; !v.Complete(p); i++ {
			children, _ := p.Expand(v, Constraints{}, math.Inf(1), true, np)
			for _, ch := range children {
				checkPruneMatchesBound(t, p, ch, np)
			}
			pick := 0
			if i < len(rest) {
				pick = int(rest[i]) % len(children)
			}
			v = children[pick]
		}
	})
}
