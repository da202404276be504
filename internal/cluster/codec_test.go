package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"testing"

	"smartexp3/internal/core"
	"smartexp3/internal/criteria"
	"smartexp3/internal/frame"
	"smartexp3/internal/frame/frametest"
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
		Runs:   24,
		Seed:   math.MinInt64,
		Stream: []int64{3, -1, math.MaxInt64},
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
// its seeding and its decoded config.
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
		frametest.RefusesPrefixes(t, fmt.Sprintf("tag %d", want.tag), p, func(q []byte) error {
			var short message
			if err := short.decode(q); err != nil || short.tag != tagRange {
				return err
			}
			var cfg sim.Config
			return decodeConfig(short.rng.Config, &cfg)
		})
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

// TestClusterCodecMatchesGob pins the codec to the wire it replaced: every
// job a range carries and every result decodes to the value a gob round
// trip of the same value yields — in particular, empty lists at every
// depth decode as nil, as gob's did, and a non-nil empty criteria profile
// stays non-nil.
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
		want := gobRoundTrip(t, spec)
		if decoded := specOf(t, &got); !reflect.DeepEqual(decoded, want) && !(tc.hasNaN && frametest.Same(decoded, want)) {
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
		if !reflect.DeepEqual(*got.result.Res, want) && !(tc.hasNaN && frametest.Same(*got.result.Res, want)) {
			t.Errorf("result %s: codec decoded %+v, gob %+v", name, *got.result.Res, want)
		}
	}
}

// notOnWire names, by their walk paths, exactly the JobSpec fields the
// codec does not carry: the five sim.Config fields Shardable documents.
// The walk skips them and must meet each one; every other field must
// survive.
var notOnWire = []string{
	"JobSpec.Config.WiFiDelay",
	"JobSpec.Config.CellularDelay",
	"JobSpec.Config.Seed",
	"JobSpec.Config.Core",
	"JobSpec.Config.PolicyFactory",
}

// wireScalars are the values the field walk sets scalar leaves to.
var wireScalars = frametest.Scalars{reflect.Int: -7, reflect.Int64: -7, reflect.Float64: 0.375, reflect.Bool: true, reflect.String: "x"}

// TestClusterCodecCarriesEveryField walks JobSpec (and with it
// sim.Config) and sim.Result by reflection and round-trips, for each leaf
// field, a value with only that field set — a JobSpec in a Range, a
// result in a RunResult. A field the codec does not
// carry decodes as zero and fails the test by name, so a field added to
// any of these types can never silently drop off the wire: the codec
// carries it, or notOnWire names it.
func TestClusterCodecCarriesEveryField(t *testing.T) {
	specFields := frametest.CarriesEveryField(t, "JobSpec", wireScalars, notOnWire, func(spec *JobSpec) (*JobSpec, error) {
		var got message
		sent := rangeOf(1, 0, 1, spec)
		if err := got.decode(sent.appendTo(nil)); err != nil {
			return nil, err
		}
		back := specOf(t, &got)
		return &back, nil
	})
	resultFields := frametest.CarriesEveryField(t, "sim.Result", wireScalars, nil, func(res *sim.Result) (*sim.Result, error) {
		var got message
		err := got.decode((&message{tag: tagRunResult, result: runResultMsg{Res: res}}).appendTo(nil))
		return got.result.Res, err
	})
	// A floor on the walk itself, so a broken walker cannot pass vacuously.
	if specFields < 20 || resultFields < 20 {
		t.Fatalf("walked only %d JobSpec and %d sim.Result leaves", specFields, resultFields)
	}
}

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
	fc := frame.NewConn(&frametest.Conn{}, 0, 0, false) // writes vanish
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
		frametest.ListsFit(t, &m, p)
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
		frametest.ListsFit(t, &cfg, p)
		if got := appendConfig(nil, &cfg); !bytes.Equal(got, m.rng.Config) {
			t.Fatalf("config %x decodes but re-encodes as %x", m.rng.Config, got)
		}
	})
}
