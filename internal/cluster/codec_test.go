package cluster

import (
	"bytes"
	"encoding/gob"
	"math"
	"net"
	"reflect"
	"testing"

	"smartexp3/internal/core"
	"smartexp3/internal/criteria"
	"smartexp3/internal/frame"
	"smartexp3/internal/game"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/sim"
)

// sendMsgs writes msgs through fc the way a connection's writer does: one
// frame each, in one flushed write.
func sendMsgs(fc *frame.Conn, msgs ...*message) error {
	var out outbox
	for _, m := range msgs {
		out.add(m)
	}
	return out.flush(fc)
}

// nextMsg reads the next frame from fc and decodes it into a fresh message.
func nextMsg(fc *frame.Conn) (*message, error) {
	var m message
	if err := readMessage(fc, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

var (
	nan     = math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN with a payload
	negZero = math.Copysign(0, -1)
)

// fullSpec is a job descriptor with every field set and every float class
// on the wire: trajectories, groups, costs, a criteria profile, NaN, −0
// and ±Inf.
func fullSpec() JobSpec {
	return JobSpec{
		Config: sim.Config{
			Topology: netmodel.Topology{
				Networks: []netmodel.Network{
					{Name: "wifi-a", Type: netmodel.WiFi, Bandwidth: 11},
					{Name: "", Type: netmodel.Cellular, Bandwidth: math.Inf(1)},
				},
				Areas: [][]int{{0, 1}, {1}, {}},
			},
			Devices: []sim.DeviceSpec{
				{Algorithm: core.AlgSmartEXP3, Trajectory: []sim.AreaStay{{FromSlot: 0, Area: 1}, {FromSlot: 30, Area: 2}}},
				{Algorithm: core.AlgGreedy, Join: 5, Leave: 50, Trajectory: []sim.AreaStay{}},
			},
			Slots:          math.MaxInt,
			SlotSeconds:    nan,
			GainScale:      negZero,
			NoiseStdDev:    math.Inf(-1),
			EpsilonPercent: 7.5,
			DeviceGroups:   [][]int{{0}, {1, 0}},
			Collect:        sim.CollectOptions{Distance: true, Probabilities: true, Selections: true, Bitrates: true},
			Criteria:       &criteria.Profile{Throughput: 1, Energy: 0.5, Money: negZero},
			NetworkCosts:   []criteria.Costs{{Energy: 0.2, PricePerData: 0}, {Energy: 0.6, PricePerData: 0.5}},
		},
		Runs:     24,
		Seed:     math.MinInt64,
		Stream:   []int64{3, -1, math.MaxInt64},
		Affinity: -2,
	}
}

// fullResult is a run result with every field set, every Collect series
// recorded and every float class on the wire.
func fullResult() *sim.Result {
	return &sim.Result{
		Slots:       4,
		SlotSeconds: 15,
		Devices: []sim.DeviceResult{
			{Algorithm: core.AlgSmartEXP3, Join: 0, Leave: 4, PresentThroughout: true, Switches: 3, Resets: 1,
				DownloadMb: 123.25, DelaySeconds: negZero, StableFrom: -1,
				Selections: []int{0, 1, 1, -1}, BitrateMbps: []float64{11, nan, math.Inf(-1), -1}},
			{Algorithm: core.AlgEXP3, Join: 1, Leave: 3, StableFrom: 2, Selections: []int{}, BitrateMbps: nil},
		},
		Distance:       []float64{0.5, negZero, math.Inf(1), 0},
		GroupDistance:  [][]float64{{0.25}, {}, nil},
		FracAtNE:       0.25,
		FracAtEps:      nan,
		UnusedMb:       math.MaxFloat64,
		TotalMb:        math.SmallestNonzeroFloat64,
		Stability:      game.RunStability{Stable: true, Slot: 3, AtNash: true},
		StabilityValid: true,
	}
}

// rangeOf is the Range a session sends for runs [first, first+count) of
// job id running spec.
func rangeOf(id uint64, first, count int, spec *JobSpec) message {
	return message{tag: tagRange, rng: rangeMsg{Job: id, First: first, Count: count,
		Runs: spec.Runs, Seed: spec.Seed, Stream: spec.Stream, Config: appendConfig(nil, &spec.Config)}}
}

// specOf rebuilds, as a worker sees it, the job a decoded Range carries:
// its seeding and its decoded config. Affinity stays with the coordinator.
func specOf(t *testing.T, m *message) JobSpec {
	t.Helper()
	spec := JobSpec{Runs: m.rng.Runs, Seed: m.rng.Seed, Stream: m.rng.Stream}
	if err := decodeConfig(m.rng.Config, &spec.Config); err != nil {
		t.Fatalf("range config: %v", err)
	}
	return spec
}

// setting1Spec is the shape of the experiment suite's batches: a paper
// topology, uniform devices, one stream id.
func setting1Spec() JobSpec {
	return JobSpec{Config: sim.Config{Topology: netmodel.Setting1(), Devices: sim.UniformDevices(5, core.AlgSmartEXP3), Slots: 120},
		Runs: 8, Seed: 1, Stream: []int64{42}}
}

// codecSamples is one representative of every message, with the optional
// parts present and absent and extreme values. Every Range carries a
// well-formed config.
func codecSamples() []message {
	full, empty, s1 := fullSpec(), JobSpec{}, setting1Spec()
	criteriaOnly := JobSpec{Config: sim.Config{Criteria: &criteria.Profile{Money: 1}}, Runs: 1, Stream: []int64{}}
	return []message{
		rangeOf(1, 0, 8, &full),
		rangeOf(math.MaxUint64, math.MinInt, math.MaxInt, &empty),
		rangeOf(2, 4, 1, &s1),
		rangeOf(0, 0, 0, &criteriaOnly),
		{tag: tagRange, rng: rangeMsg{Job: 3, First: 1, Count: 2, Runs: math.MaxInt, Seed: math.MaxInt64,
			Stream: []int64{math.MinInt64, 0}, Config: appendConfig(nil, &s1.Config)}},
		{tag: tagRunResult, result: runResultMsg{Job: 1, Run: 3, Res: fullResult()}},
		{tag: tagRunResult, result: runResultMsg{Job: 1, Run: -1, Res: &sim.Result{}}},
		{tag: tagRunResult, result: runResultMsg{Job: 1, Run: 4}}, // no result
		{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: 1, First: 8}},
		{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: 1, First: 0, Err: "sim: bad device"}},
		{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: math.MaxUint64, First: math.MaxInt, Err: "sim: no slots"}},
		{tag: tagPing, ping: pingMsg{Seq: math.MaxUint64}},
		{tag: tagPing, ping: pingMsg{Seq: 1}},
		{tag: tagPong, pong: pongMsg{Seq: 0}},
	}
}

// TestClusterCodecRoundTrip pins the codec's contract on every message:
// re-encoding the decoded message reproduces the payload (encoding is
// injective, so every field — float bits included — survived), and any
// strict prefix of a payload is refused rather than decoded short — by
// the message decoder, or, for a prefix that cuts a Range's config tail,
// by the config decoder a worker runs on it.
func TestClusterCodecRoundTrip(t *testing.T) {
	for _, want := range codecSamples() {
		p := want.appendTo(nil)
		var got message
		if err := got.decode(p); err != nil {
			t.Fatalf("tag %d: %v", want.tag, err)
		}
		if got.tag != want.tag {
			t.Fatalf("tag %d decoded as tag %d", want.tag, got.tag)
		}
		if q := got.appendTo(nil); !bytes.Equal(q, p) {
			t.Fatalf("tag %d: re-encoding differs:\n%x\n%x", want.tag, p, q)
		}
		if got.tag == tagRange {
			var cfg sim.Config
			if err := decodeConfig(got.rng.Config, &cfg); err != nil {
				t.Fatalf("range config: %v", err)
			}
		}
		for n := 0; n < len(p); n++ {
			var short message
			if err := short.decode(p[:n]); err == nil {
				var cfg sim.Config
				if short.tag != tagRange || decodeConfig(short.rng.Config, &cfg) == nil {
					t.Fatalf("tag %d: %d-byte prefix of a %d-byte payload decoded", want.tag, n, len(p))
				}
			}
		}
	}
}

// gobRoundTrip passes v through gob, the cluster wire before version 5.
func gobRoundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	var out T
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// sameValue is reflect.DeepEqual except that two NaNs with the same bits
// are equal, so a table entry can carry NaN. Like DeepEqual it tells a nil
// slice or pointer from a non-nil one, holds −0 equal to +0 (gob drops a
// −0 struct field as a zero value; the codec keeps its bits) and holds two
// funcs equal only when both are nil (sim.Config has func fields).
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Func:
		return a.IsNil() && b.IsNil()
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Elem().Type() == b.Elem().Type() && sameValue(a.Elem(), b.Elem())
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || math.Float64bits(x) == math.Float64bits(y)
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// TestClusterCodecMatchesGob pins the codec to the wire it replaced: every
// job a range carries and every result decodes to the value a gob round
// trip of the same value yields (Affinity aside, which no longer crosses)
// — in particular, empty lists at every depth decode as nil, as gob's
// did, and a non-nil empty criteria profile stays non-nil.
func TestClusterCodecMatchesGob(t *testing.T) {
	full := fullSpec()
	emptyLists := JobSpec{Config: sim.Config{
		Topology:     netmodel.Topology{Networks: []netmodel.Network{}, Areas: [][]int{}},
		Devices:      []sim.DeviceSpec{{Trajectory: []sim.AreaStay{}}},
		DeviceGroups: [][]int{{}, nil},
		NetworkCosts: []criteria.Costs{},
	}, Stream: []int64{}}
	zeroProfile := JobSpec{Config: sim.Config{Criteria: &criteria.Profile{}}}
	for name, tc := range map[string]struct {
		spec   JobSpec
		hasNaN bool
	}{
		"full":          {full, true},
		"zero":          {JobSpec{}, false},
		"empty lists":   {emptyLists, false},
		"zero criteria": {zeroProfile, false},
		"setting 1":     {setting1Spec(), false},
	} {
		spec := tc.spec
		var got message
		sent := rangeOf(1, 0, 1, &spec)
		if err := got.decode(sent.appendTo(nil)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spec.Affinity = 0
		want := gobRoundTrip(t, spec)
		if decoded := specOf(t, &got); !reflect.DeepEqual(decoded, want) && !(tc.hasNaN && sameValue(reflect.ValueOf(decoded), reflect.ValueOf(want))) {
			t.Errorf("job spec %s: codec decoded %+v, gob %+v", name, decoded, want)
		}
	}

	emptySeries := &sim.Result{
		Devices:       []sim.DeviceResult{{Selections: []int{}, BitrateMbps: []float64{}}},
		Distance:      []float64{},
		GroupDistance: [][]float64{{}, nil},
	}
	for name, tc := range map[string]struct {
		res    *sim.Result
		hasNaN bool
	}{
		"full":         {fullResult(), true},
		"zero":         {&sim.Result{}, false},
		"empty series": {emptySeries, false},
		"no devices":   {&sim.Result{Slots: 10, Devices: []sim.DeviceResult{}, FracAtNE: negZero}, false},
	} {
		var got message
		if err := got.decode((&message{tag: tagRunResult, result: runResultMsg{Res: tc.res}}).appendTo(nil)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := gobRoundTrip(t, *tc.res)
		if !reflect.DeepEqual(*got.result.Res, want) && !(tc.hasNaN && sameValue(reflect.ValueOf(*got.result.Res), reflect.ValueOf(want))) {
			t.Errorf("result %s: codec decoded %+v, gob %+v", name, *got.result.Res, want)
		}
	}
}

// leafSetter sets one leaf field, named by path, inside a zero value of
// the walked type.
type leafSetter struct {
	path string
	set  func(v reflect.Value)
}

// notOnWire names, by their leafSetters path, exactly the JobSpec fields
// the codec does not carry: the five sim.Config fields Shardable
// documents, and Affinity, the coordinator's placement hint. The walk
// skips them and must meet each one; every other field must survive.
var notOnWire = []string{
	"JobSpec.Affinity",
	"JobSpec.Config.WiFiDelay",
	"JobSpec.Config.CellularDelay",
	"JobSpec.Config.Seed",
	"JobSpec.Config.Core",
	"JobSpec.Config.PolicyFactory",
}

// leafSetters walks t by reflection and returns one setter per leaf
// field, reaching through pointers (allocated) and slices (one element).
// A field whose path is a key of skip is left out, and its value set to
// true. A field of a kind the codec has no encoding for fails the test.
func leafSetters(t *testing.T, typ reflect.Type, path string, skip map[string]bool) []leafSetter {
	var out []leafSetter
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			p := path + "." + typ.Field(i).Name
			if _, ok := skip[p]; ok {
				skip[p] = true
				continue
			}
			for _, ls := range leafSetters(t, typ.Field(i).Type, p, skip) {
				out = append(out, leafSetter{ls.path, func(v reflect.Value) { ls.set(v.Field(i)) }})
			}
		}
	case reflect.Pointer:
		for _, ls := range leafSetters(t, typ.Elem(), path, skip) {
			out = append(out, leafSetter{ls.path, func(v reflect.Value) {
				v.Set(reflect.New(typ.Elem()))
				ls.set(v.Elem())
			}})
		}
	case reflect.Slice:
		for _, ls := range leafSetters(t, typ.Elem(), path+"[0]", skip) {
			out = append(out, leafSetter{ls.path, func(v reflect.Value) {
				v.Set(reflect.MakeSlice(typ, 1, 1))
				ls.set(v.Index(0))
			}})
		}
	case reflect.Int, reflect.Int64:
		out = append(out, leafSetter{path, func(v reflect.Value) { v.SetInt(-7) }})
	case reflect.Float64:
		out = append(out, leafSetter{path, func(v reflect.Value) { v.SetFloat(0.375) }})
	case reflect.Bool:
		out = append(out, leafSetter{path, func(v reflect.Value) { v.SetBool(true) }})
	case reflect.String:
		out = append(out, leafSetter{path, func(v reflect.Value) { v.SetString("x") }})
	default:
		t.Errorf("%s: field of kind %s has no wire encoding", path, typ.Kind())
	}
	return out
}

// TestClusterCodecCarriesEveryField walks JobSpec (and with it
// sim.Config) and sim.Result by reflection and round-trips, for each leaf
// field, a value with only that field set — a JobSpec in a Range, a
// result in a RunResult. A field the codec does not
// carry decodes as zero and fails the test by name, so a field added to
// any of these types can never silently drop off the wire: the codec
// carries it, or notOnWire names it.
func TestClusterCodecCarriesEveryField(t *testing.T) {
	met := make(map[string]bool)
	for _, path := range notOnWire {
		met[path] = false
	}
	specFields := leafSetters(t, reflect.TypeOf(JobSpec{}), "JobSpec", met)
	for path, ok := range met {
		if !ok {
			t.Errorf("notOnWire names %s, which the walk never met", path)
		}
	}
	for _, ls := range specFields {
		var spec JobSpec
		ls.set(reflect.ValueOf(&spec).Elem())
		var got message
		sent := rangeOf(1, 0, 1, &spec)
		if err := got.decode(sent.appendTo(nil)); err != nil || !reflect.DeepEqual(specOf(t, &got), spec) {
			t.Errorf("%s does not survive the codec (%v)", ls.path, err)
		}
	}
	resultFields := leafSetters(t, reflect.TypeOf(sim.Result{}), "sim.Result", nil)
	for _, ls := range resultFields {
		var res sim.Result
		ls.set(reflect.ValueOf(&res).Elem())
		var got message
		err := got.decode((&message{tag: tagRunResult, result: runResultMsg{Res: &res}}).appendTo(nil))
		if err != nil || !reflect.DeepEqual(*got.result.Res, res) {
			t.Errorf("%s does not survive the codec (%v)", ls.path, err)
		}
	}
	// A floor on the walk itself, so a broken walker cannot pass vacuously.
	if len(specFields) < 20 || len(resultFields) < 20 {
		t.Fatalf("walked only %d JobSpec and %d sim.Result leaves", len(specFields), len(resultFields))
	}
}

// discardConn is a net.Conn whose writes vanish; a frame.Conn without
// deadlines touches nothing else on the write path.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// TestClusterCodecWarmAllocs is the allocation gate behind the encoders'
// //repolint:allocfree markers: once an outbox has grown, encoding and
// sending every frame a warm session streams — Range (config and all),
// RunResult, RangeDone, Ping and Pong — allocates nothing. On the worker's
// side, decoding a Range into the connection's message, once its Stream
// storage has grown, allocates nothing either.
func TestClusterCodecWarmAllocs(t *testing.T) {
	spec := fullSpec()
	msgs := []message{
		rangeOf(3, 16, 8, &spec),
		{tag: tagRunResult, result: runResultMsg{Job: 3, Run: 17, Res: fullResult()}},
		{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: 3, First: 16}},
		{tag: tagPing, ping: pingMsg{Seq: 4}},
		{tag: tagPong, pong: pongMsg{Seq: 4}},
		{tag: tagRangeDone, rangeDone: rangeDoneMsg{Job: 3, First: 24}},
	}
	fc := frame.NewConn(discardConn{}, 0, 0, false)
	var out outbox
	send := func() {
		for i := range msgs {
			out.add(&msgs[i])
			if i%2 == 1 {
				if err := out.flush(fc); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	send() // grow the outbox
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("warm encode+send costs %.1f allocs/op, want 0", allocs)
	}

	p := msgs[0].appendTo(nil)
	var in message
	decode := func() {
		if err := in.decode(p); err != nil {
			t.Fatal(err)
		}
	}
	decode() // grow the Stream storage
	if allocs := testing.AllocsPerRun(200, decode); allocs != 0 {
		t.Fatalf("warm Range decode costs %.1f allocs/op, want 0", allocs)
	}
}

// longestList returns the length of the longest slice reachable from v.
func longestList(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n = longestList(v.Elem())
		}
	case reflect.Slice:
		n = v.Len()
		for i := 0; i < v.Len(); i++ {
			n = max(n, longestList(v.Index(i)))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n = max(n, longestList(v.Field(i)))
		}
	}
	return n
}

// fuzzCodecSeeds is the checked-in seed corpus for FuzzClusterCodec: every
// codecSamples payload, the malformed shapes the decoder must refuse —
// unknown tags, an overlong varint, a count larger than the bytes left, a
// bad presence byte, trailing bytes and truncation — and Ranges whose
// config tail is missing, cut short or followed by a stray byte, which the
// message decoder keeps and the config decoder must refuse.
func fuzzCodecSeeds() [][]byte {
	var seeds [][]byte
	for _, m := range codecSamples() {
		seeds = append(seeds, m.appendTo(nil))
	}
	spec := setting1Spec()
	whole := rangeOf(1, 0, 8, &spec)
	p := whole.appendTo(nil)
	noConfig := message{tag: tagRange, rng: rangeMsg{Job: 1, First: 0, Count: 8, Runs: 8}}
	seeds = append(seeds,
		noConfig.appendTo(nil),    // no config tail
		p[:len(p)-1],              // config cut short
		append(bytes.Clone(p), 0), // a stray byte after the config
	)
	return append(seeds,
		[]byte{0},                                         // unknown tag
		[]byte{byte(tagPong) + 1, 1},                      // the first tag past the set
		[]byte{byte(tagPing), 0x80, 0},                    // overlong varint
		[]byte{byte(tagRange), 1, 0, 2, 2, 0, 0xff, 0x01}, // stream count beyond the payload
		[]byte{byte(tagRunResult), 1, 0, 2},               // presence byte 2
		[]byte{byte(tagPong), 1, 0},                       // trailing byte
		[]byte{byte(tagRunResult), 1, 0, 1, 8, 0, 0, 0},   // truncated float
	)
}

// FuzzClusterCodec throws arbitrary payloads at the cluster decoder, and
// a decoded Range's config tail at the config decoder a worker runs on a
// cache miss. The invariants: no panic; every payload that decodes
// re-encodes to exactly the same bytes, and so does every config tail
// that decodes (the layout is canonical, so nothing is silently
// normalized — equal configs arrive as equal bytes, which is what the
// worker's engine cache keys by); and no decoded list is longer than the
// payload, so a hostile count can never size storage beyond the bytes
// that arrived.
func FuzzClusterCodec(f *testing.F) {
	for _, seed := range fuzzCodecSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		var m message
		err := m.decode(p)
		if n := longestList(reflect.ValueOf(&m).Elem()); n > len(p) {
			t.Fatalf("decoded a %d-element list from a %d-byte payload", n, len(p))
		}
		if err != nil {
			return
		}
		if got := m.appendTo(nil); !bytes.Equal(got, p) {
			t.Fatalf("payload %x decodes (tag %d) but re-encodes as %x", p, m.tag, got)
		}
		if m.tag != tagRange {
			return
		}
		var cfg sim.Config
		if decodeConfig(m.rng.Config, &cfg) != nil {
			return
		}
		if n := longestList(reflect.ValueOf(&cfg).Elem()); n > len(p) {
			t.Fatalf("decoded a %d-element config list from a %d-byte payload", n, len(p))
		}
		if got := appendConfig(nil, &cfg); !bytes.Equal(got, m.rng.Config) {
			t.Fatalf("config %x decodes but re-encodes as %x", m.rng.Config, got)
		}
	})
}
