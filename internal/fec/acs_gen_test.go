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
// other two, where b is the correlation of butterflyOut[j] with (la, lb);
// the survivor bit is the sign of the exact metric difference, 1 iff the
// odd predecessor strictly wins. The select is branchless (max compiles to
// a conditional move) because channel noise decides the survivors, so a
// branch would mispredict about half the time.
func acsStep(cur, nxt *[numStates]int64, p, q int64) (surv uint64) {
	var m0, m1, a, c, d, e int64
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
		fmt.Fprintf(&buf, "\tnxt[%d], nxt[%d] = max(a, c), max(d, e)\n", j, hi)
		lo := ""
		if j > 0 {
			lo = fmt.Sprintf("<<%d", j)
		}
		fmt.Fprintf(&buf, "\tsurv |= uint64(a-c)>>63%s | uint64(d-e)>>63<<%d\n", lo, hi)
	}
	buf.WriteString("\treturn surv\n}\n")
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
