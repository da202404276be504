package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"smartexp3/internal/rngutil"
)

// envGain is a deterministic environment: the gain of an arm at a slot is a
// pure function of both, so two policies making identical selections observe
// identical gains.
func envGain(arm, slot int) float64 {
	x := math.Sin(float64(arm*31+slot)*0.7)*0.4 + 0.5
	return math.Min(math.Max(x, 0), 1)
}

// driveSlots runs the policy n slots against envGain starting at slot base,
// returning the selection sequence.
func driveSlots(p *SmartEXP3, base, n int) []int {
	out := make([]int, n)
	for t := 0; t < n; t++ {
		arm := p.Select()
		out[t] = arm
		p.Observe(envGain(arm, base+t))
	}
	return out
}

func TestExportImportContinuesBitIdentically(t *testing.T) {
	for _, alg := range []Algorithm{AlgEXP3, AlgHybridBlockEXP3, AlgSmartEXP3} {
		t.Run(alg.String(), func(t *testing.T) {
			const warm, tail = 400, 400
			avail := []int{2, 5, 9, 11}

			src := rngutil.NewSource(1234)
			p := NewSmartEXP3(alg.String(), FeaturesFor(alg), avail, DefaultConfig(), rand.New(src))
			driveSlots(p, 0, warm)

			// Capture (policy state, rng state) at the cut point.
			var st PolicyState
			p.ExportState(&st)
			var rngSt rngutil.SourceState
			src.ExportState(&rngSt)

			want := driveSlots(p, warm, tail)

			// Restore into a fresh policy over a different initial set — the
			// import must fully overwrite it.
			src2 := &rngutil.Source{}
			src2.SetState(rngSt)
			rng2 := rand.New(src2)
			q := NewSmartEXP3(alg.String(), FeaturesFor(alg), []int{1, 3}, DefaultConfig(), rand.New(rngutil.NewSource(9)))
			if err := q.ImportState(&st, rng2); err != nil {
				t.Fatal(err)
			}
			got := driveSlots(q, warm, tail)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("selection diverges at slot %d: got %d want %d", i, got[i], want[i])
				}
			}
			if p.Resets() != q.Resets() || p.Switches() != q.Switches() {
				t.Fatalf("counters diverge: resets %d/%d switches %d/%d",
					p.Resets(), q.Resets(), p.Switches(), q.Switches())
			}
		})
	}
}

func TestExportImportSurvivesAvailabilityChurn(t *testing.T) {
	sets := [][]int{{1, 2, 3}, {2, 3, 7}, {1, 2, 3, 7}, {3, 7}}
	src := rngutil.NewSource(77)
	p := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), sets[0], DefaultConfig(), rand.New(src))
	slot := 0
	for i := 0; i < 8; i++ {
		p.SetAvailable(sets[i%len(sets)])
		driveSlots(p, slot, 50)
		slot += 50
	}

	var st PolicyState
	p.ExportState(&st)
	var rngSt rngutil.SourceState
	src.ExportState(&rngSt)
	want := driveSlots(p, slot, 200)

	src2 := &rngutil.Source{}
	src2.SetState(rngSt)
	q := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), []int{0}, DefaultConfig(), rand.New(rngutil.NewSource(1)))
	if err := q.ImportState(&st, rand.New(src2)); err != nil {
		t.Fatal(err)
	}
	got := driveSlots(q, slot, 200)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-churn continuation diverges")
	}
}

func TestExportImportExportIsLossless(t *testing.T) {
	src := rngutil.NewSource(5)
	p := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), []int{0, 1, 2}, DefaultConfig(), rand.New(src))
	driveSlots(p, 0, 300)

	var a PolicyState
	p.ExportState(&a)
	q := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), []int{0, 1}, DefaultConfig(), rand.New(rngutil.NewSource(2)))
	if err := q.ImportState(&a, rand.New(rngutil.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	var b PolicyState
	q.ExportState(&b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("export → import → export is not the identity")
	}
}

// TestImportRecomputesWeightViewsExactly pins what PolicyState leaves out:
// at every slot of a churned run, importing the exported state into a
// fresh policy must reproduce the live policy's linear-space weights and
// γ, which import recomputes, and its tree and running sum, which it
// copies, to the bit. The run must move the shift, since a recomputation
// that only agrees under a zero shift would otherwise pass.
func TestImportRecomputesWeightViewsExactly(t *testing.T) {
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	sets := [][]int{{1, 2, 3}, {2, 3, 7}, {1, 2, 3, 7}, {3, 7}}
	for _, alg := range []Algorithm{AlgEXP3, AlgSmartEXP3} {
		t.Run(alg.String(), func(t *testing.T) {
			p := NewSmartEXP3(alg.String(), FeaturesFor(alg), sets[0], DefaultConfig(), rand.New(rngutil.NewSource(41)))
			env := rngutil.New(43)
			var st PolicyState
			shifts := 0
			for slot := 0; slot < 3000; slot++ {
				before := p.w.shift
				if env.Intn(8) == 0 {
					p.SetAvailable(sets[env.Intn(len(sets))])
				}
				p.Observe(envGain(p.Select(), slot))
				if p.w.shift != before {
					shifts++
				}
				p.ExportState(&st)
				q := NewSmartEXP3(alg.String(), FeaturesFor(alg), []int{0}, DefaultConfig(), rand.New(rngutil.NewSource(1)))
				if err := q.ImportState(&st, rand.New(rngutil.NewSource(2))); err != nil {
					t.Fatal(err)
				}
				if !same(q.w.wExp, p.w.wExp) || !same(q.w.tree, p.w.tree) ||
					math.Float64bits(q.w.sumW) != math.Float64bits(p.w.sumW) ||
					math.Float64bits(q.gamma) != math.Float64bits(p.gamma) {
					t.Fatalf("slot %d: imported views wExp %v tree %v sumW %v γ %v, live %v %v %v %v",
						slot, q.w.wExp, q.w.tree, q.w.sumW, q.gamma, p.w.wExp, p.w.tree, p.w.sumW, p.gamma)
				}
			}
			if shifts == 0 {
				t.Fatal("the shift never moved; the recomputation is not exercised off zero")
			}
			t.Logf("%d slots moved the shift", shifts)
		})
	}
}

func TestExportStateReusesBuffers(t *testing.T) {
	p := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), []int{0, 1, 2}, DefaultConfig(), rand.New(rngutil.NewSource(8)))
	driveSlots(p, 0, 100)
	var st PolicyState
	p.ExportState(&st) // size the buffers once
	allocs := testing.AllocsPerRun(50, func() {
		p.ExportState(&st)
	})
	if allocs > 0 {
		t.Fatalf("warm ExportState allocates %.0f objects per call", allocs)
	}
}

// TestReservedStateHoldsAnExport exports policies of 1 to 8 arms, each
// with more arms than the last, through one state reserved for 8: no
// export allocates, and each reads the same as an export into a fresh
// state.
func TestReservedStateHoldsAnExport(t *testing.T) {
	cfg := DefaultConfig()
	var st PolicyState
	st.Reserve(8, cfg.SwitchBackWindow)
	for k := 1; k <= 8; k++ {
		arms := make([]int, k)
		for i := range arms {
			arms[i] = 2 * i
		}
		p := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), arms, cfg, rand.New(rngutil.NewSource(int64(k))))
		driveSlots(p, 0, 60)
		if allocs := testing.AllocsPerRun(1, func() { p.ExportState(&st) }); allocs > 0 {
			t.Fatalf("%d arms: exporting into the reserved state allocates %.0f objects", k, allocs)
		}
		var fresh PolicyState
		p.ExportState(&fresh)
		if fmt.Sprint(st) != fmt.Sprint(fresh) { // %v prints every float exactly, and a nil slice as an empty one
			t.Fatalf("%d arms: the reserved state's export differs from a fresh one's", k)
		}
	}
}

func TestPolicyStateValidateRejectsCorruptStates(t *testing.T) {
	mk := func() *PolicyState {
		p := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), []int{0, 1, 2}, DefaultConfig(), rand.New(rngutil.NewSource(4)))
		driveSlots(p, 0, 50)
		var st PolicyState
		p.ExportState(&st)
		return &st
	}
	tests := []struct {
		name   string
		mutate func(*PolicyState)
	}{
		{"empty availability", func(s *PolicyState) { s.Available = nil }},
		{"unsorted availability", func(s *PolicyState) { s.Available[0], s.Available[1] = s.Available[1], s.Available[0] }},
		{"duplicate availability", func(s *PolicyState) { s.Available[1] = s.Available[0] }},
		{"short LogW", func(s *PolicyState) { s.LogW = s.LogW[:1] }},
		{"short Tree", func(s *PolicyState) { s.Tree = s.Tree[:2] }},
		{"Cur out of range", func(s *PolicyState) { s.Cur = 99 }},
		{"PendingSB below -1", func(s *PolicyState) { s.PendingSB = -2 }},
		{"X negative", func(s *PolicyState) { s.X[1] = -5 }},
		{"BlockIdx negative", func(s *PolicyState) { s.BlockIdx = -1 }},
		{"X negative on the current network", func(s *PolicyState) { s.X[s.Cur] = -1 }},
		{"running block without a network", func(s *PolicyState) { s.Cur, s.NeedBlock = -1, false }},
		{"Explore out of range", func(s *PolicyState) { s.Explore = append(s.Explore, 42) }},
		{"short SlotsOn", func(s *PolicyState) { s.SlotsOn = nil }},
		{"window longer than SwitchBackWindow", func(s *PolicyState) { s.Window = make([]float64, 43) }},
		{"previous window longer than SwitchBackWindow", func(s *PolicyState) { s.PrevWindow = make([]float64, 9) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st := mk()
			if err := st.ValidateFor(DefaultConfig()); err != nil {
				t.Fatalf("baseline state invalid: %v", err)
			}
			tt.mutate(st)
			if err := st.ValidateFor(DefaultConfig()); err == nil {
				t.Fatal("corrupt state validated")
			}
			q := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), []int{0, 1, 2}, DefaultConfig(), rand.New(rngutil.NewSource(6)))
			before := q.Select()
			if err := q.ImportState(st, rand.New(rngutil.NewSource(7))); err == nil {
				t.Fatal("corrupt state imported")
			}
			// The failed import must not have touched the policy.
			if got := q.Select(); got != before {
				t.Fatalf("failed import perturbed the policy: %d != %d", got, before)
			}
		})
	}
}

// TestIMaxTracksScanAcrossChurnResetsAndImport pins the incrementally kept
// i_max. After every Observe, SetAvailable and reset it must equal a fresh
// scan of slotsOn. The environment degrades each phase's best network, so
// quality-drop resets fire, and the arm set churns, so network-change
// resets fire too. Mid-run, at a point where i_max is not arm 0, the state
// is exported and imported into a fresh policy, which must then make the
// same selections and end with the same ExportState bytes as the
// uninterrupted policy. i_max is not part of PolicyState, so this is what
// shows that ImportState rebuilds it. The largest block count, kept the
// same way for the periodic reset check, is checked alongside.
func TestIMaxTracksScanAcrossChurnResetsAndImport(t *testing.T) {
	sets := [][]int{{1, 2, 3, 4}, {1, 2, 3, 4, 6}, {2, 3, 6}, {1, 2, 3, 4, 5, 6}}
	gain := func(arm, slot int) float64 {
		g := envGain(arm, slot/7)
		if arm == 2+(slot/300)%3 {
			g = 0.95 // this phase's clear winner, until the phase ends
		}
		return g
	}
	check := func(p *SmartEXP3, what string, slot int) {
		t.Helper()
		if got, want := p.iMaxLi, p.scanIMax(); got != want {
			t.Fatalf("slot %d, after %s: i_max %d, scan of slotsOn %v gives %d", slot, what, got, p.slotsOn, want)
		}
		if got, want := p.maxX, p.scanMaxX(); got != want {
			t.Fatalf("slot %d, after %s: max x %d, scan of x %v gives %d", slot, what, got, p.x, want)
		}
	}
	step := func(p *SmartEXP3, slot int) int {
		if slot%97 == 96 {
			p.SetAvailable(sets[(slot/97)%len(sets)])
			check(p, "SetAvailable", slot)
		}
		arm := p.Select()
		check(p, "Select", slot)
		p.Observe(gain(arm, slot))
		check(p, "Observe", slot)
		return arm
	}

	const total, cutAfter = 3000, 1500
	src := rngutil.NewSource(2024)
	p := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), sets[0], DefaultConfig(), rand.New(src))
	cut := -1
	var st PolicyState
	var rngSt rngutil.SourceState
	var want []int
	for slot := 0; slot < total; slot++ {
		arm := step(p, slot)
		if cut >= 0 {
			want = append(want, arm)
		} else if slot >= cutAfter && p.iMaxLi != 0 {
			cut = slot + 1
			p.ExportState(&st)
			src.ExportState(&rngSt)
		}
	}
	if cut < 0 {
		t.Fatal("i_max never left arm 0 after the cut point; the import is not exercised")
	}
	if p.Resets() < 3 {
		t.Fatalf("only %d resets fired; the reset paths are not exercised", p.Resets())
	}

	src2 := &rngutil.Source{}
	src2.SetState(rngSt)
	q := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), []int{7}, DefaultConfig(), rand.New(rngutil.NewSource(1)))
	if err := q.ImportState(&st, rand.New(src2)); err != nil {
		t.Fatal(err)
	}
	check(q, "ImportState", cut)
	for slot := cut; slot < total; slot++ {
		if got := step(q, slot); got != want[slot-cut] {
			t.Fatalf("slot %d: imported policy selects %d, uninterrupted %d", slot, got, want[slot-cut])
		}
	}
	var a, b PolicyState
	p.ExportState(&a)
	q.ExportState(&b)
	if !bytes.Equal(gobBytes(t, &a), gobBytes(t, &b)) {
		t.Fatal("imported and uninterrupted policies end in different states")
	}
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mutateState applies the edits encoded in data to st, one field per
// 9-byte record: a selector byte picks a field of PolicyState (and, with
// its high bit, a small rather than a raw value), and 8 bytes give the
// value. A slice field takes the value as an index and an element, or as
// a new length when the selector's bit 6 is set.
func mutateState(st *PolicyState, data []byte) {
	v := reflect.ValueOf(st).Elem()
	for ; len(data) >= 9; data = data[9:] {
		sel, raw := data[0], binary.LittleEndian.Uint64(data[1:9])
		small := sel&0x80 != 0
		f := v.Field(int(sel&0x3f) % v.NumField())
		asInt := int64(raw)
		asFloat := math.Float64frombits(raw)
		if small {
			asInt = int64(int8(raw))
			asFloat = float64(int8(raw)) / 8
		}
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(asInt)
		case reflect.Float64:
			f.SetFloat(asFloat)
		case reflect.Bool:
			f.SetBool(raw&1 == 1)
		case reflect.Slice:
			if sel&0x40 != 0 {
				n := int(raw % 12)
				grown := reflect.MakeSlice(f.Type(), n, n)
				reflect.Copy(grown, f)
				f.Set(grown)
				continue
			}
			if f.Len() == 0 {
				continue
			}
			e := f.Index(int((raw >> 56) % uint64(f.Len())))
			if e.Kind() == reflect.Int {
				e.SetInt(int64(int8(raw)))
			} else {
				e.SetFloat(asFloat)
			}
		}
	}
}

// FuzzImportState mutates the fields of a real exported state and imports
// it. The import must either fail, or leave a policy that survives 200
// seeded Select/Observe slots with arm-set churn without panicking.
func FuzzImportState(f *testing.F) {
	src := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), []int{0, 1, 2, 5}, DefaultConfig(), rand.New(rngutil.NewSource(31)))
	driveSlots(src, 0, 120)
	src.SetAvailable([]int{0, 2, 5, 7})
	driveSlots(src, 120, 3)
	rec := func(field int, small bool, v uint64) []byte {
		b := make([]byte, 9)
		b[0] = byte(field)
		if small {
			b[0] |= 0x80
		}
		binary.LittleEndian.PutUint64(b[1:], v)
		return b
	}
	field := func(name string) int {
		sf, ok := reflect.TypeOf(PolicyState{}).FieldByName(name)
		if !ok {
			f.Fatalf("PolicyState has no field %s", name)
		}
		return sf.Index[0]
	}
	f.Add([]byte{})
	f.Add(rec(field("X"), false, 1<<56|0xfb))                                                    // X[1] = -5
	f.Add(append(rec(field("Cur"), true, 0xff), rec(field("NeedBlock"), false, 0)...))           // running block, no network
	f.Add(append(rec(field("X"), false, 0x7f), rec(field("BlockIdx"), false, math.MaxInt64)...)) // counters near overflow
	f.Add(rec(field("SumW"), false, math.Float64bits(math.NaN())))
	f.Add(rec(field("Window")|0x40, false, 11))
	f.Fuzz(func(t *testing.T, data []byte) {
		var st PolicyState
		src.ExportState(&st)
		mutateState(&st, data)
		p := NewSmartEXP3("Smart EXP3", FeaturesFor(AlgSmartEXP3), []int{0}, DefaultConfig(), rand.New(rngutil.NewSource(1)))
		if err := p.ImportState(&st, rand.New(rngutil.NewSource(2))); err != nil {
			return
		}
		env := rngutil.New(3)
		last := -1
		for slot := 0; slot < 200; slot++ {
			if env.Intn(8) == 0 {
				p.SetAvailable(churnSet(env, p.Available(), last, last))
			}
			last = p.Select()
			p.Observe(envGain(last, slot))
		}
	})
}
