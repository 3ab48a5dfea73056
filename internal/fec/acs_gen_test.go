package fec

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite acs_gen.go from butterflyOut")

// genACS writes acsStep as straight-line code: one block per butterfly
// with its branch metric and survivor-bit shifts as constants. Butterfly j
// adds ±b to its four edges, where b is the correlation of the coded pair
// butterflyOut[j] with (la, lb) written in p = la+lb, q = la−lb.
func genACS() []byte {
	// b for each coded pair o = A | B<<1: a 0 bit adds its LLR, a 1 bit
	// subtracts it.
	branch := [4]struct {
		v   string
		neg bool
	}{{"p", false}, {"q", true}, {"q", false}, {"p", true}}
	var buf bytes.Buffer
	buf.WriteString(`// Code generated by "go test -run TestACSStepUpToDate -update"; DO NOT EDIT.

package fec

// acsStep runs the 32 add-compare-select butterflies of one trellis step
// from cur into nxt and returns the step's packed survivor bits. p and q
// are la+lb and la−lb for the step's quantised LLRs. Butterfly j (states
// 2j, 2j+1 → j, j+32) adds b to the 2j→j and 2j+1→j+32 edges and −b to the
// other two, where b is the correlation of butterflyOut[j] with (la, lb).
// The metrics wrap around int32: each pair of candidates is compared by
// the sign of its wrapped difference x, exact while the true difference is
// below 2^31, and the survivor bit is that sign, 1 iff the odd predecessor
// strictly wins. The selects compile to conditional moves, not branches,
// since channel noise decides the survivors and a branch would mispredict
// about half the time. The low and high survivor halves (states 0–31 and
// 32–63) accumulate in 32-bit words. This is the step the AVX2 kernel runs
// eight lanes at a time.
func acsStep(cur, nxt *[numStates]int32, p, q int32) uint64 {
	var m0, m1, a, c, d, e, x, y int32
	var lo, hi uint32
`)
	for j, o := range butterflyOut {
		b := branch[o]
		// edge renders m ± b, negating b once more when flip is set.
		edge := func(m string, flip bool) string {
			if b.neg != flip {
				return m + "-" + b.v
			}
			return m + "+" + b.v
		}
		hi := j + numStates/2
		fmt.Fprintf(&buf, "\n\tm0, m1 = cur[%d], cur[%d]\n", 2*j, 2*j+1)
		fmt.Fprintf(&buf, "\ta, c, d, e = %s, %s, %s, %s\n",
			edge("m0", false), edge("m1", true), edge("m0", true), edge("m1", false))
		fmt.Fprintf(&buf, "\tx, y = a-c, d-e\n")
		fmt.Fprintf(&buf, "\tif x < 0 {\n\t\ta = c\n\t}\n\tif y < 0 {\n\t\td = e\n\t}\n")
		fmt.Fprintf(&buf, "\tnxt[%d], nxt[%d] = a, d\n", j, hi)
		shift := ""
		if j > 0 {
			shift = fmt.Sprintf("<<%d", j)
		}
		fmt.Fprintf(&buf, "\tlo |= uint32(x)>>31%s\n\thi |= uint32(y)>>31%s\n", shift, shift)
	}
	buf.WriteString("\treturn uint64(lo) | uint64(hi)<<32\n}\n")
	src, err := format.Source(buf.Bytes())
	if err != nil {
		panic(err)
	}
	return src
}

// TestACSStepUpToDate fails when acs_gen.go no longer matches what genACS
// derives from the code generators; run go generate to refresh it.
func TestACSStepUpToDate(t *testing.T) {
	want := genACS()
	if *update {
		if err := os.WriteFile("acs_gen.go", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("acs_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("acs_gen.go is stale: run go generate ./internal/fec")
	}
}
