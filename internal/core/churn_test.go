package core

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math/rand"
	"reflect"
	"testing"

	"smartexp3/internal/rngutil"
)

// churnDigests pins every re-indexing policy's trajectory through random
// availability churn. They were recorded from the map-based SetAvailable
// this package used before the merge walk, so any re-indexing change that
// moves a selection, a weight bit or an exploration order shows up here.
// The five EXP3-family digests hash the exported PolicyState and were
// re-recorded once, when the cached distribution left it; that code
// reproduced the earlier trajectories with the cache fields blanked. When
// the linear-space weights and γ left the state too, hashPolicy kept the
// layout the digests were recorded with, folding the live values in.
var churnDigests = map[Algorithm]string{
	AlgEXP3:             "cf32ab3681e6f1658a13e55277b2a1df8ece6f604177ad4ba9afe6eb62d2afae",
	AlgBlockEXP3:        "b1cde5a6eeb5b6b23588744df18e58a22d99f7cb66d475d8f1f9e7d3d93b245b",
	AlgHybridBlockEXP3:  "86755c134e0e82e0c7b4bd7b952dede189f4ae697e973c9cac35d6ddb0a09a1d",
	AlgSmartEXP3NoReset: "830bd86e4c584c326e4288b975575e0c05681c6212f6bb50d4d266921b832497",
	AlgSmartEXP3:        "de0ae19d7ec40312bf4ffdb7cce953152cd2f643a56153e71c08aa9bb4da3fb4",
	AlgGreedy:           "043de93b0bec3ff8a29c1bc448dbc3f5d2f8700954697b45b2f6886e8416632d",
	AlgFullInformation:  "df6ac91982092e6d43e96bf2f9cca6eebbf98bc63bd3af1f7b7db34acba932ea",
}

// churnCoverage counts the availability changes that exercise each
// re-indexing path, so the digests are known to cover them.
type churnCoverage struct {
	added, removed, curRemoved, highProbRemoved int
	midBlock, pendingSwitchBack, pendingExplore int
	duplicate, negative                         int
}

// note classifies a change the test is about to make to p's arm set.
func (c *churnCoverage) note(p *SmartEXP3, next []int) {
	in := func(set []int, id int) bool {
		for _, x := range set {
			if x == id {
				return true
			}
		}
		return false
	}
	changed := false
	for _, id := range next {
		if !in(p.available, id) {
			c.added++
			changed = true
			break
		}
	}
	for li, id := range p.available {
		if in(next, id) {
			continue
		}
		changed = true
		c.removed++
		if li == p.cur {
			c.curRemoved++
		}
		if p.armProb(li) >= p.cfg.ResetProbability {
			c.highProbRemoved++
		}
	}
	if !changed {
		return
	}
	if !p.needBlock && p.slotIn > 0 {
		c.midBlock++
	}
	if p.pendingSB >= 0 {
		c.pendingSwitchBack++
	}
	if len(p.explore) > 0 {
		c.pendingExplore++
	}
	for i, id := range next {
		if id < 0 {
			c.negative++
		}
		if in(next[:i], id) {
			c.duplicate++
		}
	}
}

// churnSet draws the next arm set from the current one: a fresh random
// subset, one arm added, one removed, the current arm removed, the
// heaviest arm removed, or the same set reshuffled. Ids range over
// [-2, 10), unsorted, occasionally with a repeat.
func churnSet(env *rand.Rand, cur []int, last int, heaviest int) []int {
	without := func(drop int) []int {
		var out []int
		for _, id := range cur {
			if id != drop {
				out = append(out, id)
			}
		}
		return out
	}
	var next []int
	switch env.Intn(6) {
	case 0:
		for _, i := range env.Perm(12)[:1+env.Intn(6)] {
			next = append(next, i-2)
		}
	case 1:
		next = append(append(next, cur...), env.Intn(12)-2)
	case 2:
		next = without(cur[env.Intn(len(cur))])
	case 3:
		next = without(last)
	case 4:
		next = without(heaviest)
	default:
		next = append(next, cur...)
	}
	if len(next) == 0 {
		next = append(next, env.Intn(12)-2)
	}
	env.Shuffle(len(next), func(i, j int) { next[i], next[j] = next[j], next[i] })
	if env.Intn(10) == 0 {
		next = append(next, next[env.Intn(len(next))])
	}
	return next
}

// hashPolicy folds the policy's re-indexed state into h. A Smart EXP3
// state is printed as %v prints a struct, with the policy's linear-space
// weights after LogW and its γ after BlockIdx, where PolicyState carried
// them when the digests were recorded.
func hashPolicy(h hash.Hash, pol Policy, st *PolicyState) {
	switch p := pol.(type) {
	case *SmartEXP3:
		p.ExportState(st)
		v, sep := reflect.ValueOf(st).Elem(), "{"
		for i := range v.NumField() {
			fmt.Fprintf(h, "%s%v", sep, v.Field(i))
			sep = " "
			switch v.Type().Field(i).Name {
			case "LogW":
				fmt.Fprintf(h, " %v", p.w.wExp)
			case "BlockIdx":
				fmt.Fprintf(h, " %v", p.gamma)
			}
		}
		fmt.Fprint(h, "}\n")
	case *Greedy:
		fmt.Fprintf(h, "%v %v %v %v %d %d %d\n", p.available, p.sumGain, p.cntGain, p.explore, p.cur, p.switches, p.last)
	case *FullInformation:
		fmt.Fprintf(h, "%v %v %v %d %d %d %d\n", p.available, p.logW, p.probs, p.slot, p.cur, p.switches, p.last)
	}
}

// churnDigest drives one policy through seeded Select/Observe slots with
// an arm-set change on roughly one slot in eight, hashing every selection
// and the policy's state after every change.
func churnDigest(t *testing.T, alg Algorithm, seed int64, cov *churnCoverage) []byte {
	t.Helper()
	env := rngutil.New(seed)
	pol, err := New(alg, []int{0, 1, 2}, DefaultConfig(), rngutil.New(seed+1000))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var st PolicyState
	last := -1
	gains := make([]float64, 0, 16)
	for slot := 0; slot < 3000; slot++ {
		if env.Intn(8) == 0 {
			heaviest := last
			sp, smart := pol.(*SmartEXP3)
			if smart {
				best := 0
				for li := range sp.available {
					if sp.w.logW[li] > sp.w.logW[best] {
						best = li
					}
				}
				heaviest = sp.available[best]
			}
			next := churnSet(env, pol.Available(), last, heaviest)
			if smart {
				cov.note(sp, next)
			}
			pol.SetAvailable(next)
			hashPolicy(h, pol, &st)
		}
		last = pol.Select()
		pol.Observe(envGain(last, slot))
		if ff, ok := pol.(FullFeedbackPolicy); ok {
			gains = gains[:0]
			for _, id := range pol.Available() {
				gains = append(gains, envGain(id, slot))
			}
			ff.ObserveAll(gains)
		}
		fmt.Fprintf(h, "%d ", last)
	}
	hashPolicy(h, pol, &st)
	return h.Sum(nil)
}

// TestSetAvailableChurnMatchesRecordedDigests is the identity gate for the
// re-indexing path: every EXP3-family algorithm plus Greedy and Full
// Information must reproduce the recorded trajectories bit for bit, and
// the churn must have exercised every re-indexing case at least once.
func TestSetAvailableChurnMatchesRecordedDigests(t *testing.T) {
	var cov churnCoverage
	for _, alg := range []Algorithm{
		AlgEXP3, AlgBlockEXP3, AlgHybridBlockEXP3, AlgSmartEXP3NoReset,
		AlgSmartEXP3, AlgGreedy, AlgFullInformation,
	} {
		h := sha256.New()
		for seed := int64(1); seed <= 4; seed++ {
			h.Write(churnDigest(t, alg, seed, &cov))
		}
		got := fmt.Sprintf("%x", h.Sum(nil))
		if want := churnDigests[alg]; got != want {
			t.Errorf("%v: churn digest %s, recorded %s", alg, got, want)
		}
	}
	t.Logf("coverage: %+v", cov)
	for name, n := range map[string]int{
		"added": cov.added, "removed": cov.removed, "current arm removed": cov.curRemoved,
		"high-probability arm removed": cov.highProbRemoved, "mid-block": cov.midBlock,
		"pending switch-back": cov.pendingSwitchBack, "pending exploration": cov.pendingExplore,
		"repeated id": cov.duplicate, "negative id": cov.negative,
	} {
		if n == 0 {
			t.Errorf("churn never exercised a change with %s", name)
		}
	}
}
