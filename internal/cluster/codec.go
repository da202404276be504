package cluster

import (
	"encoding/binary"
	"fmt"

	"smartexp3/internal/core"
	"smartexp3/internal/criteria"
	"smartexp3/internal/frame"
	"smartexp3/internal/netmodel"
	"smartexp3/internal/sim"
)

// The smallest encoding of one list element, per element type. Counts are
// bounded by them before any storage is sized, so a hostile count can
// never allocate beyond the bytes that arrived.
const (
	intMinBytes          = 1                    // one varint
	floatBytes           = 8                    // IEEE-754 bits
	listMinBytes         = 1                    // an empty inner list's count
	networkMinBytes      = 1 + 1 + floatBytes   // name length, type, bandwidth
	deviceSpecMinBytes   = 4                    // algorithm, join, leave, trajectory count
	areaStayMinBytes     = 2                    // from-slot, area
	costsMinBytes        = 2 * floatBytes       // energy, price
	deviceResultMinBytes = 7 + 2*floatBytes + 2 // seven varints and presence bytes, download, delay, two list counts
)

// retainScratchBytes is the capacity above which an encode buffer is
// dropped after its write instead of staying pinned for the connection's
// lifetime (a result with long per-slot series can be megabytes).
const retainScratchBytes = 1 << 20

// appendTo appends m's payload — tag byte, then the live message's fields
// (see wire.go for the layout) — to b and returns the extended slice. The
// connections encode into retained scratch, so warm encoding allocates
// nothing.
//
//repolint:allocfree via TestClusterCodecWarmAllocs
func (m *message) appendTo(b []byte) []byte {
	//repolint:ignore allocfree appends into the connection's encode scratch, whose capacity is retained across frames
	b = append(b, byte(m.tag))
	switch m.tag {
	case tagRange:
		b = binary.AppendUvarint(b, m.rng.Job)
		b = binary.AppendVarint(b, int64(m.rng.First))
		b = binary.AppendVarint(b, int64(m.rng.Count))
		b = binary.AppendVarint(b, int64(m.rng.Runs))
		b = binary.AppendVarint(b, m.rng.Seed)
		b = frame.AppendList(b, m.rng.Stream, binary.AppendVarint)
		//repolint:ignore allocfree appends into the connection's encode scratch, whose capacity is retained across frames
		b = append(b, m.rng.Config...)
	case tagRunResult:
		b = binary.AppendUvarint(b, m.result.Job)
		b = binary.AppendVarint(b, int64(m.result.Run))
		b = frame.AppendBool(b, m.result.Res != nil)
		if m.result.Res != nil {
			b = appendResult(b, m.result.Res)
		}
	case tagRangeDone:
		b = binary.AppendUvarint(b, m.rangeDone.Job)
		b = binary.AppendVarint(b, int64(m.rangeDone.First))
		b = frame.AppendString(b, m.rangeDone.Err)
	case tagPing:
		b = binary.AppendUvarint(b, m.ping.Seq)
	case tagPong:
		b = binary.AppendUvarint(b, m.pong.Seq)
	}
	return b
}

// appendConfig appends the sim.Config fields that cross the wire (all but
// the five Shardable names) in the order cluster protocol v5 fixed, which
// is not sim.Config's declaration order: EpsilonPercent precedes
// DeviceGroups. A range carries these bytes as the rest of its payload.
func appendConfig(b []byte, c *sim.Config) []byte {
	b = frame.AppendList(b, c.Topology.Networks, func(b []byte, n netmodel.Network) []byte {
		b = frame.AppendString(b, n.Name)
		b = binary.AppendVarint(b, int64(n.Type))
		return frame.AppendFloat(b, n.Bandwidth)
	})
	b = frame.AppendList(b, c.Topology.Areas, appendInts)
	b = frame.AppendList(b, c.Devices, func(b []byte, d sim.DeviceSpec) []byte {
		b = binary.AppendVarint(b, int64(d.Algorithm))
		b = binary.AppendVarint(b, int64(d.Join))
		b = binary.AppendVarint(b, int64(d.Leave))
		return frame.AppendList(b, d.Trajectory, func(b []byte, st sim.AreaStay) []byte {
			b = binary.AppendVarint(b, int64(st.FromSlot))
			return binary.AppendVarint(b, int64(st.Area))
		})
	})
	b = binary.AppendVarint(b, int64(c.Slots))
	b = frame.AppendFloat(b, c.SlotSeconds)
	b = frame.AppendFloat(b, c.GainScale)
	b = frame.AppendFloat(b, c.NoiseStdDev)
	b = frame.AppendFloat(b, c.EpsilonPercent)
	b = frame.AppendList(b, c.DeviceGroups, appendInts)
	b = frame.AppendBool(b, c.Collect.Distance)
	b = frame.AppendBool(b, c.Collect.Probabilities)
	b = frame.AppendBool(b, c.Collect.Selections)
	b = frame.AppendBool(b, c.Collect.Bitrates)
	b = frame.AppendBool(b, c.Criteria != nil)
	if c.Criteria != nil {
		b = frame.AppendFloat(b, c.Criteria.Throughput)
		b = frame.AppendFloat(b, c.Criteria.Energy)
		b = frame.AppendFloat(b, c.Criteria.Money)
	}
	return frame.AppendList(b, c.NetworkCosts, func(b []byte, nc criteria.Costs) []byte {
		return frame.AppendFloat(frame.AppendFloat(b, nc.Energy), nc.PricePerData)
	})
}

// appendResult appends every sim.Result field in declaration order.
//
//repolint:allocfree via TestClusterCodecWarmAllocs
func appendResult(b []byte, r *sim.Result) []byte {
	b = binary.AppendVarint(b, int64(r.Slots))
	b = frame.AppendFloat(b, r.SlotSeconds)
	b = binary.AppendUvarint(b, uint64(len(r.Devices)))
	for i := range r.Devices {
		d := &r.Devices[i]
		b = binary.AppendVarint(b, int64(d.Algorithm))
		b = binary.AppendVarint(b, int64(d.Join))
		b = binary.AppendVarint(b, int64(d.Leave))
		b = frame.AppendBool(b, d.PresentThroughout)
		b = binary.AppendVarint(b, int64(d.Switches))
		b = binary.AppendVarint(b, int64(d.Resets))
		b = frame.AppendFloat(b, d.DownloadMb)
		b = frame.AppendFloat(b, d.DelaySeconds)
		b = binary.AppendVarint(b, int64(d.StableFrom))
		b = appendInts(b, d.Selections)
		b = frame.AppendList(b, d.BitrateMbps, frame.AppendFloat)
	}
	b = frame.AppendList(b, r.Distance, frame.AppendFloat)
	b = binary.AppendUvarint(b, uint64(len(r.GroupDistance)))
	for _, g := range r.GroupDistance {
		b = frame.AppendList(b, g, frame.AppendFloat)
	}
	b = frame.AppendFloat(b, r.FracAtNE)
	b = frame.AppendFloat(b, r.FracAtEps)
	b = frame.AppendFloat(b, r.UnusedMb)
	b = frame.AppendFloat(b, r.TotalMb)
	b = frame.AppendBool(b, r.Stability.Stable)
	b = binary.AppendVarint(b, int64(r.Stability.Slot))
	b = frame.AppendBool(b, r.Stability.AtNash)
	return frame.AppendBool(b, r.StabilityValid)
}

// decode parses payload p into m and reports whether p is a well-formed
// payload. Every count is checked against the bytes left before storage is
// sized, varints must be canonical, presence bytes 0 or 1, trailing bytes
// are an error, an empty list decodes as nil, and no input panics — so a
// payload decodes exactly when re-encoding the result reproduces it byte
// for byte. A Range's config is the rest of its payload, kept as it
// arrived (see readConfig); its Stream reuses the storage of the previous
// range m decoded. A present RunResult decodes into a newly allocated
// sim.Result; every other message decodes in place. On error m's contents
// are unspecified (but its lists stay bounded by len(p)).
func (m *message) decode(p []byte) error {
	if len(p) == 0 {
		m.tag = 0
		return frame.ErrTruncated
	}
	m.tag = msgTag(p[0])
	m.r = frame.NewPayloadReader(p[1:])
	r := &m.r
	switch m.tag {
	case tagRange:
		m.rng.Job = r.Uvarint()
		m.rng.First = r.Int()
		m.rng.Count = r.Int()
		m.rng.Runs = r.Int()
		m.rng.Seed = r.Int64()
		m.rng.Stream = frame.ReadList(r, m.rng.Stream[:0], intMinBytes, (*frame.PayloadReader).Int64)
		m.rng.Config = r.Rest()
		r.Skip(len(m.rng.Config))
	case tagRunResult:
		m.result.Job = r.Uvarint()
		m.result.Run = r.Int()
		m.result.Res = nil
		if r.Bool() {
			m.result.Res = new(sim.Result)
			readResult(r, m.result.Res)
		}
	case tagRangeDone:
		m.rangeDone.Job = r.Uvarint()
		m.rangeDone.First = r.Int()
		m.rangeDone.Err = r.Text()
	case tagPing:
		m.ping.Seq = r.Uvarint()
	case tagPong:
		m.pong.Seq = r.Uvarint()
	default:
		return frame.ErrTag
	}
	return r.Finish()
}

// decodeConfig decodes a range's config bytes into c and reports whether
// they are exactly one well-formed config.
func decodeConfig(config []byte, c *sim.Config) error {
	r := frame.NewPayloadReader(config)
	readConfig(&r, c)
	return r.Finish()
}

// readConfig reads appendConfig's layout into c.
func readConfig(r *frame.PayloadReader, c *sim.Config) {
	c.Topology.Networks = frame.ReadList(r, nil, networkMinBytes, func(r *frame.PayloadReader) netmodel.Network {
		return netmodel.Network{Name: r.Text(), Type: netmodel.Type(r.Int()), Bandwidth: r.Float()}
	})
	c.Topology.Areas = frame.ReadList(r, nil, listMinBytes, readInts)
	c.Devices = frame.ReadList(r, nil, deviceSpecMinBytes, func(r *frame.PayloadReader) sim.DeviceSpec {
		return sim.DeviceSpec{Algorithm: core.Algorithm(r.Int()), Join: r.Int(), Leave: r.Int(),
			Trajectory: frame.ReadList(r, nil, areaStayMinBytes, func(r *frame.PayloadReader) sim.AreaStay {
				return sim.AreaStay{FromSlot: r.Int(), Area: r.Int()}
			})}
	})
	c.Slots = r.Int()
	c.SlotSeconds = r.Float()
	c.GainScale = r.Float()
	c.NoiseStdDev = r.Float()
	c.EpsilonPercent = r.Float()
	c.DeviceGroups = frame.ReadList(r, nil, listMinBytes, readInts)
	c.Collect.Distance = r.Bool()
	c.Collect.Probabilities = r.Bool()
	c.Collect.Selections = r.Bool()
	c.Collect.Bitrates = r.Bool()
	if r.Bool() {
		c.Criteria = &criteria.Profile{Throughput: r.Float(), Energy: r.Float(), Money: r.Float()}
	}
	c.NetworkCosts = frame.ReadList(r, nil, costsMinBytes, func(r *frame.PayloadReader) criteria.Costs {
		return criteria.Costs{Energy: r.Float(), PricePerData: r.Float()}
	})
}

// readResult reads appendResult's layout into res.
func readResult(r *frame.PayloadReader, res *sim.Result) {
	res.Slots = r.Int()
	res.SlotSeconds = r.Float()
	res.Devices = frame.ReadList(r, nil, deviceResultMinBytes, func(r *frame.PayloadReader) sim.DeviceResult {
		return sim.DeviceResult{Algorithm: core.Algorithm(r.Int()), Join: r.Int(), Leave: r.Int(),
			PresentThroughout: r.Bool(), Switches: r.Int(), Resets: r.Int(),
			DownloadMb: r.Float(), DelaySeconds: r.Float(), StableFrom: r.Int(),
			Selections: readInts(r), BitrateMbps: readFloats(r)}
	})
	res.Distance = readFloats(r)
	res.GroupDistance = frame.ReadList(r, nil, listMinBytes, readFloats)
	res.FracAtNE = r.Float()
	res.FracAtEps = r.Float()
	res.UnusedMb = r.Float()
	res.TotalMb = r.Float()
	res.Stability.Stable = r.Bool()
	res.Stability.Slot = r.Int()
	res.Stability.AtNash = r.Bool()
	res.StabilityValid = r.Bool()
}

// appendInts appends a list of ints as zigzag varints.
//
//repolint:allocfree via TestClusterCodecWarmAllocs
func appendInts(b []byte, vs []int) []byte {
	return frame.AppendList(b, vs, frame.AppendInt)
}

func readInts(r *frame.PayloadReader) []int {
	return frame.ReadList(r, nil, intMinBytes, (*frame.PayloadReader).Int)
}

func readFloats(r *frame.PayloadReader) []float64 {
	return frame.ReadList(r, nil, floatBytes, (*frame.PayloadReader).Float)
}

// readMessage reads the next frame from c and decodes it into m. The
// frame layer's errors pass through unchanged (a clean close between
// frames is io.EOF exactly); a payload that does not decode is a protocol
// breach.
func readMessage(c *frame.Conn, m *message) error {
	p, err := c.ReadFrame()
	if err != nil {
		return err
	}
	if err := m.decode(p); err != nil {
		return fmt.Errorf("protocol: %w", err)
	}
	return nil
}

// outbox queues encoded messages in one retained buffer and sends them as
// one frame each in a single flushed write. Not safe for concurrent use;
// each connection's writer owns one.
type outbox struct {
	buf    []byte
	ends   []int    // end offset in buf of each queued payload
	frames [][]byte // WriteFrames' argument, rebuilt per flush
}

// add encodes m after the queued messages.
//
//repolint:allocfree via TestClusterCodecWarmAllocs
func (o *outbox) add(m *message) {
	o.buf = m.appendTo(o.buf)
	//repolint:ignore allocfree the offsets slice's capacity is retained across flushes
	o.ends = append(o.ends, len(o.buf))
}

// len reports how many messages are queued.
func (o *outbox) len() int { return len(o.ends) }

// flush writes every queued message through c — one deadline check, one
// flush — and empties the outbox whatever the outcome.
//
//repolint:allocfree via TestClusterCodecWarmAllocs
func (o *outbox) flush(c *frame.Conn) error {
	start := 0
	for _, end := range o.ends {
		//repolint:ignore allocfree the frames slice's capacity is retained across flushes
		o.frames = append(o.frames, o.buf[start:end])
		start = end
	}
	err := c.WriteFrames(o.frames...)
	clear(o.frames) // drop the aliases before the buffer may be released
	o.frames, o.ends = o.frames[:0], o.ends[:0]
	o.buf = o.buf[:0]
	if cap(o.buf) > retainScratchBytes {
		o.buf = nil
	}
	return err
}
