package serve

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"smartexp3/internal/core"
	"smartexp3/internal/frame"
	"smartexp3/internal/rngutil"
)

// snapshotVersion is bumped whenever the snapshot layout changes
// incompatibly; every read and restore path refuses a mismatch with a
// *VersionError. Version 2 added the per-device selection slot (the
// feedback-dedup cursor): restoring it wrongly-zeroed would let
// pre-snapshot feedback replayed after a restart double-count. Version 3
// dropped the cached selection distribution from the policy state and
// added UniformProbs, the one cached fact the weights cannot reproduce.
// Versions 1 to 3 were one gob-encoded Snapshot value. Version 4 is the
// fixed layout below, which a snapshot holds as its in-memory form too.
// Version 5 gave the generator a compact form: a device fewer than 334
// draws past its seed carries its seed and draw count, 3 to 8 bytes,
// where version 4 carried every generator as its 4,866-byte ring.
// Version 6 dropped the policy state's linear-space weights and γ, which
// import recomputes exactly from the log-weights, shift and block index.
const snapshotVersion = 6

// SnapshotVersion is the current snapshot layout version — what Snapshot
// stamps and every restore path demands.
const SnapshotVersion = snapshotVersion

// The v6 snapshot stream is a magic string, then the header and each
// device record as a frame of a 4-byte little-endian length and that many
// bytes:
//
//	stream = "SXP3SNAP" · frame(header) · frame(record) × count
//	header = version · algorithm · seed · dropped · count
//	record = device · pending · slot · generator · policy
//
// Fields use the frame package's field encodings: an unsigned field
// (device, slot, dropped, count) is a canonical uvarint, a signed one
// (version, algorithm, seed, pending and every int of the policy state) a
// canonical zigzag varint, a float the 8 little-endian bytes of its
// IEEE-754 bits, a bool a 0/1 byte, and a list a uvarint count then its
// elements, written at its actual length. Records follow in strictly
// ascending device order, and nothing follows the last one.
//
// generator is the device's rngutil.SourceState in the layout rngutil
// owns (AppendState), in one of two forms:
//
//	generator = 607 · tap · feed · word × 607   (the ring form)
//	          | 0 · seed · draws                (the compact form)
//
// each number a canonical uvarint and each word its 8 little-endian
// bytes. A generator fewer than 334 draws past its seed takes the compact
// form, its conditioned seed (in [1, 2³¹−2]) and the draws it has made
// (below 334); any other takes the ring form. The form depends only on
// the device's draws since it was seeded, so equal histories still encode
// equal bytes. policy is every core.PolicyState field in declaration order:
//
//	Available []int · LogW, Tree []float64 · SumW, Shift float ·
//	UniformProbs bool · Explore []int · BlockIdx, Cur int · SelProb float · BlockLen, SlotIn int · BlockGain float ·
//	Window []float64 · CurIsSB, NeedBlock bool · PrevNet int ·
//	PrevWindow []float64 · PrevWasSB bool · PendingSB int ·
//	X []int · SumGain []float64 · CntGain, SlotsOn []int ·
//	CondAFailed bool · YThreshold int · GreedyWasEligible bool ·
//	DropRef float · DropCount, Resets, Switches, SwitchBacks,
//	LastGlobal, TotalSlots int
//
// The layout is canonical: a record decodes only if re-encoding the
// result reproduces it byte for byte, so equal store states encode to
// equal bytes whatever path produced the records.
const snapshotMagic = "SXP3SNAP"

// VersionError refuses a snapshot of another layout version, naming both.
type VersionError struct {
	Got, Want int
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("serve: snapshot version %d, want %d", e.Got, e.Want)
}

// DeviceSnapshot is one device session at rest, decoded: its policy
// state (core.PolicyState keeps bit for bit what the policy cannot
// recompute and leaves out the linear-space weights, γ and the selection
// distribution, which it recomputes exactly; see that type's doc) plus its generator cursor, the unanswered selection,
// and the selection slot. It is what a DeviceRecord decodes to, and what
// a caller that inspects or edits one device works on.
type DeviceSnapshot struct {
	Device  uint64
	Pending int
	Slot    uint64
	Rng     rngutil.SourceState
	State   core.PolicyState
}

// Validate checks the record's policy state and generator state, so a
// corrupt record is refused instead of restoring a policy or a stream no
// store produces. ReadSnapshot calls it; the restore paths and fleet
// staging call Store.CheckSnapshot, which adds the store's own bounds.
func (ds *DeviceSnapshot) Validate() error {
	if err := ds.State.Validate(); err != nil {
		return err
	}
	return ds.Rng.Validate()
}

// Record encodes ds as a v6 record.
func (ds *DeviceSnapshot) Record() DeviceRecord {
	return DeviceRecord{Device: ds.Device, Record: string(appendRecord(nil, ds))}
}

// DeviceRecord is one device's entry in a snapshot: its id and its v6
// record. The record is a string, so no holder can change a snapshot's
// records in place; a captured record is a substring of one allocation
// that holds its whole shard's records, so a snapshot keeps its record
// bytes plus 24 bytes of index per device.
type DeviceRecord struct {
	Device uint64
	Record string
}

// Decode decodes the record into ds, reusing ds's slices where their
// capacity allows.
func (rec DeviceRecord) Decode(ds *DeviceSnapshot) error {
	var r frame.PayloadReader
	return decodeRecord(&r, []byte(rec.Record), ds)
}

// appendRecord appends ds's v6 record to b.
func appendRecord(b []byte, ds *DeviceSnapshot) []byte {
	b = binary.AppendUvarint(b, ds.Device)
	b = frame.AppendInt(b, ds.Pending)
	b = binary.AppendUvarint(b, ds.Slot)
	b = rngutil.AppendState(b, &ds.Rng)
	s := &ds.State
	b = frame.AppendList(b, s.Available, frame.AppendInt)
	b = frame.AppendList(b, s.LogW, frame.AppendFloat)
	b = frame.AppendList(b, s.Tree, frame.AppendFloat)
	b = frame.AppendFloat(b, s.SumW)
	b = frame.AppendFloat(b, s.Shift)
	b = frame.AppendBool(b, s.UniformProbs)
	b = frame.AppendList(b, s.Explore, frame.AppendInt)
	b = frame.AppendInt(b, s.BlockIdx)
	b = frame.AppendInt(b, s.Cur)
	b = frame.AppendFloat(b, s.SelProb)
	b = frame.AppendInt(b, s.BlockLen)
	b = frame.AppendInt(b, s.SlotIn)
	b = frame.AppendFloat(b, s.BlockGain)
	b = frame.AppendList(b, s.Window, frame.AppendFloat)
	b = frame.AppendBool(b, s.CurIsSB)
	b = frame.AppendBool(b, s.NeedBlock)
	b = frame.AppendInt(b, s.PrevNet)
	b = frame.AppendList(b, s.PrevWindow, frame.AppendFloat)
	b = frame.AppendBool(b, s.PrevWasSB)
	b = frame.AppendInt(b, s.PendingSB)
	b = frame.AppendList(b, s.X, frame.AppendInt)
	b = frame.AppendList(b, s.SumGain, frame.AppendFloat)
	b = frame.AppendList(b, s.CntGain, frame.AppendInt)
	b = frame.AppendList(b, s.SlotsOn, frame.AppendInt)
	b = frame.AppendBool(b, s.CondAFailed)
	b = frame.AppendInt(b, s.YThreshold)
	b = frame.AppendBool(b, s.GreedyWasEligible)
	b = frame.AppendFloat(b, s.DropRef)
	b = frame.AppendInt(b, s.DropCount)
	b = frame.AppendInt(b, s.Resets)
	b = frame.AppendInt(b, s.Switches)
	b = frame.AppendInt(b, s.SwitchBacks)
	b = frame.AppendInt(b, s.LastGlobal)
	return frame.AppendInt(b, s.TotalSlots)
}

// decodeRecord decodes the v6 record p into ds through r, reusing ds's
// slices. Every varint must be canonical, every list count is bounded by
// the bytes left before storage is sized, the generator must be one
// ReadState accepts (a ring form's cursors inside the ring, a compact
// form's seed and draw count in range), and nothing may follow the last
// field; an empty list decodes as nil into a fresh ds. Whether the state
// is one a store produces is Validate's question. The caller holds r
// because the list reads make it escape, so a loop of decodes reuses one.
func decodeRecord(r *frame.PayloadReader, p []byte, ds *DeviceSnapshot) error {
	*r = frame.NewPayloadReader(p)
	ds.Device = r.Uvarint()
	ds.Pending = r.Int()
	ds.Slot = r.Uvarint()
	if r.Err() == nil {
		n, err := rngutil.ReadState(r.Rest(), &ds.Rng)
		if err != nil {
			r.Fail(err)
		}
		r.Skip(n)
	}
	const intBytes, floatBytes = 1, 8 // the least bytes a list element takes
	readInt, readFloat := (*frame.PayloadReader).Int, (*frame.PayloadReader).Float
	s := &ds.State
	s.Available = frame.ReadList(r, s.Available, intBytes, readInt)
	s.LogW = frame.ReadList(r, s.LogW, floatBytes, readFloat)
	s.Tree = frame.ReadList(r, s.Tree, floatBytes, readFloat)
	s.SumW = r.Float()
	s.Shift = r.Float()
	s.UniformProbs = r.Bool()
	s.Explore = frame.ReadList(r, s.Explore, intBytes, readInt)
	s.BlockIdx = r.Int()
	s.Cur = r.Int()
	s.SelProb = r.Float()
	s.BlockLen = r.Int()
	s.SlotIn = r.Int()
	s.BlockGain = r.Float()
	s.Window = frame.ReadList(r, s.Window, floatBytes, readFloat)
	s.CurIsSB = r.Bool()
	s.NeedBlock = r.Bool()
	s.PrevNet = r.Int()
	s.PrevWindow = frame.ReadList(r, s.PrevWindow, floatBytes, readFloat)
	s.PrevWasSB = r.Bool()
	s.PendingSB = r.Int()
	s.X = frame.ReadList(r, s.X, intBytes, readInt)
	s.SumGain = frame.ReadList(r, s.SumGain, floatBytes, readFloat)
	s.CntGain = frame.ReadList(r, s.CntGain, intBytes, readInt)
	s.SlotsOn = frame.ReadList(r, s.SlotsOn, intBytes, readInt)
	s.CondAFailed = r.Bool()
	s.YThreshold = r.Int()
	s.GreedyWasEligible = r.Bool()
	s.DropRef = r.Float()
	s.DropCount = r.Int()
	s.Resets = r.Int()
	s.Switches = r.Int()
	s.SwitchBacks = r.Int()
	s.LastGlobal = r.Int()
	s.TotalSlots = r.Int()
	return r.Finish()
}

// Snapshot is a Store's portable state: a header and an index of device
// records sorted by id. A record is the device's encoding, so the encoded
// bytes are a deterministic function of the store's logical state —
// independent of shard count, map iteration order, or which shard was
// visited first — and writing a snapshot out is a copy.
type Snapshot struct {
	Version   int
	Algorithm core.Algorithm
	Seed      int64
	Dropped   uint64
	Devices   []DeviceRecord
}

// Snapshot captures every active device session. Shards are locked one at a
// time, so service continues on the others while a shard is being copied;
// each device is captured atomically, but the cut is NOT globally
// consistent under live writes: a device on a later shard may absorb
// feedback after an earlier shard was copied. Quiesce the store first when
// a consistent cut is required — the daemon's shutdown path does so by
// closing the listener, but `served -snapshot-every` deliberately does
// not: its periodic snapshots are crash-recovery points, per-device exact
// yet possibly a few requests skewed across devices, which replay
// absorbs. For a consistent cut of a key range under traffic, bar writes
// to the range first (SetOwnership) and use SnapshotRange.
//
// The snapshot allocates what it keeps. Devices is allocated once, at the
// count a first pass over the shards finds, so a quiescent store's
// snapshot has cap(Devices) == len(Devices); a device that joins between
// that pass and its shard's copy grows Devices by exactly what that shard
// needs. Each shard's devices are encoded under its lock into a scratch
// buffer the capture drops when it returns, and their records are then
// copied into one string of exactly their length.
func (s *Store) Snapshot() *Snapshot {
	return &Snapshot{
		Version:   snapshotVersion,
		Algorithm: s.cfg.Algorithm,
		Seed:      s.cfg.Seed,
		Dropped:   s.dropped.Load(),
		Devices:   s.capture(0, math.MaxUint64),
	}
}

// SnapshotRange captures the device sessions whose routing key
// (RouteKey of the device id) lies in [lo, hi], inclusive, in the same
// sorted portable form and with the same allocation as Snapshot. Dropped
// is zero — the drop counter is store-global and stays with the full
// store.
//
// The cut is globally consistent for the range if and only if writes to
// the range are barred first: install an ownership filter that disowns
// [lo, hi] (SetOwnership), then call SnapshotRange. Because Select and
// Feedback re-read the filter under each shard lock, every request the
// old filter admitted completes before this sweep reaches its shard and
// is captured; every request after sees the rejection. Without that
// barrier the per-shard locking leaves the same skew window the full
// Snapshot has.
func (s *Store) SnapshotRange(lo, hi uint64) *Snapshot {
	return &Snapshot{
		Version:   snapshotVersion,
		Algorithm: s.cfg.Algorithm,
		Seed:      s.cfg.Seed,
		Devices:   s.capture(lo, hi),
	}
}

// capture encodes the sessions whose routing key lies in [lo, hi] and
// returns their index sorted by device id. A first pass counts them, one
// shard lock at a time, and the index is allocated at that count; see
// Snapshot.
func (s *Store) capture(lo, hi uint64) []DeviceRecord {
	in := func(id uint64) bool {
		k := RouteKey(id)
		return lo <= k && k <= hi
	}
	n := 0
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for id := range sh.devices {
			if in(id) {
				n++
			}
		}
		sh.mu.Unlock()
	}
	idx := make([]DeviceRecord, 0, n)
	c := &captureScratch{room: recordRoom}
	c.ds.State.Reserve(deviceArms, s.cfg.Policy.SwitchBackWindow)
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		idx = c.captureShard(sh, idx, in)
		sh.mu.Unlock()
	}
	slices.SortFunc(idx, func(a, b DeviceRecord) int { return cmp.Compare(a.Device, b.Device) })
	return idx
}

// captureScratch is one capture's encoding state: the buffer a shard's
// records are encoded into, where each ends, the room per record the
// buffer is sized for, and the decoded form each device is exported
// through, its policy slices reserved once for a record's deviceArms
// arms. It lives only as long as the capture.
type captureScratch struct {
	buf  []byte
	ends []int
	room int
	ds   DeviceSnapshot
}

// recordRoom is the room per record a capture's scratch starts with. A
// record whose generator is in the compact form takes 219 to 407 B at
// serve-churn's 3 to 8 arms.
const recordRoom = 512

// captureShard appends sh's sessions that in admits to idx, their records
// encoded into the scratch buffer and then copied, together, into one
// string sized exactly. The buffer holds the shard's records at c.room
// bytes each; a longer record raises c.room by a quarter over its length
// and grows the buffer for the rest of the shard at that, so records that
// vary in length (with their arm count, or a ring-form generator beside
// compact ones) grow it a few times per capture, not per record. Caller
// holds sh.mu.
func (c *captureScratch) captureShard(sh *shard, idx []DeviceRecord, in func(uint64) bool) []DeviceRecord {
	cnt := 0
	for id := range sh.devices {
		if in(id) {
			cnt++
		}
	}
	if len(idx)+cnt > cap(idx) { // joined since the count: grow by this shard's need
		idx = append(make([]DeviceRecord, 0, len(idx)+cnt), idx...)
	}
	first := len(idx)
	c.buf, c.ends = slices.Grow(c.buf[:0], cnt*c.room), slices.Grow(c.ends[:0], cnt)
	ds := &c.ds
	for id, dev := range sh.devices {
		if !in(id) {
			continue
		}
		ds.Device, ds.Pending, ds.Slot = id, dev.pending, dev.slot
		dev.src.ExportState(&ds.Rng)
		dev.policy.ExportState(&ds.State)
		start := len(c.buf)
		c.buf = appendRecord(c.buf, ds)
		if n := len(c.buf) - start; n > c.room {
			c.room = n * 5 / 4
			c.buf = slices.Grow(c.buf, (cnt-len(c.ends)-1)*c.room)
		}
		c.ends = append(c.ends, len(c.buf))
		idx = append(idx, DeviceRecord{Device: id})
	}
	records, start := string(c.buf), 0
	for i, end := range c.ends {
		idx[first+i].Record = records[start:end]
		start = end
	}
	return idx
}

// RemoveRange retires every device session whose routing key lies in
// [lo, hi], inclusive, without invoking eviction hooks, and reports how
// many it removed. It is the final step of a committed migration handoff:
// the range's state now lives on the gaining peer, so the local copies are
// surplus, not evictions, and are left to the garbage collector rather
// than pooled.
func (s *Store) RemoveRange(lo, hi uint64) int {
	removed := 0
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		for id := range sh.devices {
			if k := RouteKey(id); k < lo || k > hi {
				continue
			}
			delete(sh.devices, id)
			s.devices.Add(-1)
			removed++
		}
		sh.mu.Unlock()
	}
	return removed
}

// Encode writes the snapshot in the v6 layout: the header, then the
// records in index order. It makes no allocation per device.
func (sn *Snapshot) Encode(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(snapshotMagic)
	head := frame.AppendInt(nil, sn.Version)
	head = frame.AppendInt(head, int(sn.Algorithm))
	head = binary.AppendVarint(head, sn.Seed)
	head = binary.AppendUvarint(head, sn.Dropped)
	head = binary.AppendUvarint(head, uint64(len(sn.Devices)))
	var size [4]byte
	binary.LittleEndian.PutUint32(size[:], uint32(len(head)))
	bw.Write(size[:])
	bw.Write(head)
	for i := range sn.Devices {
		rec := sn.Devices[i].Record
		binary.LittleEndian.PutUint32(size[:], uint32(len(rec)))
		bw.Write(size[:])
		bw.WriteString(rec)
	}
	if err := bw.Flush(); err != nil { // bufio.Writer keeps its first error
		return fmt.Errorf("serve: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot reads a v6 snapshot one record at a time and validates
// each as it goes: varints canonical, every count bounded by the bytes
// left, each record's policy and generator state valid (Validate), device
// ids strictly ascending, and no bytes after the last record. A corrupt
// stream therefore fails here rather than half-applying in Restore. A
// snapshot of an earlier version is refused with a *VersionError.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	if magic, err := br.Peek(len(snapshotMagic)); err != nil || string(magic) != snapshotMagic {
		return nil, notFixedLayout(br)
	}
	br.Discard(len(snapshotMagic))
	buf, err := readFrame(br, nil)
	if err != nil {
		return nil, fmt.Errorf("serve: decode snapshot header: %w", err)
	}
	h := frame.NewPayloadReader(buf)
	sn := &Snapshot{Version: h.Int()}
	if h.Err() == nil && sn.Version != snapshotVersion {
		return nil, &VersionError{Got: sn.Version, Want: snapshotVersion}
	}
	sn.Algorithm = core.Algorithm(h.Int())
	sn.Seed = h.Int64()
	sn.Dropped = h.Uvarint()
	count := h.Uvarint()
	if err := h.Finish(); err != nil {
		return nil, fmt.Errorf("serve: decode snapshot header: %w", err)
	}
	// count is untrusted until its records arrive, so it only caps the
	// index's first allocation. Records are read back to back into chunk
	// and stored a chunk at a time, as one string their index entries share.
	sn.Devices = make([]DeviceRecord, 0, min(count, 1<<16))
	var (
		ds    DeviceSnapshot
		rd    frame.PayloadReader
		chunk = make([]byte, 0, readChunk)
		ends  []int // where each record in chunk ends
	)
	store := func() {
		records, start, first := string(chunk), 0, len(sn.Devices)-len(ends)
		for i, end := range ends {
			sn.Devices[first+i].Record = records[start:end]
			start = end
		}
		chunk, ends = chunk[:0], ends[:0]
	}
	for i := uint64(0); i < count; i++ {
		start := len(chunk)
		if chunk, err = readFrame(br, chunk); err != nil {
			return nil, fmt.Errorf("serve: snapshot record %d of %d: %w", i, count, err)
		}
		err := decodeRecord(&rd, chunk[start:], &ds)
		if err == nil {
			err = ds.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("serve: snapshot device %d: %w", ds.Device, err)
		}
		if n := len(sn.Devices); n > 0 && sn.Devices[n-1].Device >= ds.Device {
			return nil, fmt.Errorf("serve: snapshot devices not strictly ascending at %d", ds.Device)
		}
		sn.Devices = append(sn.Devices, DeviceRecord{Device: ds.Device})
		if ends = append(ends, len(chunk)); len(chunk) >= readChunk {
			store()
		}
	}
	store()
	if _, err := br.ReadByte(); err == nil {
		return nil, errors.New("serve: trailing bytes after the snapshot's last record")
	} else if err != io.EOF {
		return nil, fmt.Errorf("serve: decode snapshot: %w", err)
	}
	return sn, nil
}

// readChunk is how many record bytes ReadSnapshot gathers before storing
// them as one string.
const readChunk = 1 << 20

// readFrame reads one length-prefixed frame of the snapshot stream and
// appends its bytes to buf. The storage grows as the bytes arrive, so a
// corrupt length costs no more memory than the stream holds.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	size, err := br.Peek(4)
	if err != nil {
		return buf, io.ErrUnexpectedEOF
	}
	end := len(buf) + int(binary.LittleEndian.Uint32(size))
	br.Discard(4)
	for len(buf) < end {
		k := min(end-len(buf), readChunk)
		buf = slices.Grow(buf, k)
		if _, err := io.ReadFull(br, buf[len(buf):len(buf)+k]); err != nil {
			return buf, io.ErrUnexpectedEOF
		}
		buf = buf[:len(buf)+k]
	}
	return buf, nil
}

// notFixedLayout explains a stream that does not open with the magic of
// the fixed layout, which versions 4 to 6 share: a snapshot of versions
// 1 to 3, which were one gob-encoded Snapshot value, is refused with a
// *VersionError naming its version; anything else is not a snapshot.
func notFixedLayout(br *bufio.Reader) error {
	b, _ := br.Peek(16 << 10) // the type definitions ahead of the value fit easily
	if v, ok := gobSnapshotVersion(b); ok {
		return &VersionError{Got: v, Want: snapshotVersion}
	}
	return errors.New("serve: not a snapshot stream")
}

// gobSnapshotVersion reads the Version field of a gob-encoded Snapshot
// without a gob decoder. A gob stream is a sequence of messages, each a
// byte count and a type id; negative ids define types, and the first
// positive one carries the value, whose fields are (delta, value) pairs.
// Version is the struct's first field, so its pair leads the value.
func gobSnapshotVersion(b []byte) (int, bool) {
	for len(b) > 0 {
		n, rest, ok := gobUint(b)
		if !ok || n > uint64(len(rest)) {
			return 0, false
		}
		msg := rest[:n]
		b = rest[n:]
		id, msg, ok := gobUint(msg)
		if !ok {
			return 0, false
		}
		if id&1 == 1 { // a negative id: a type definition
			continue
		}
		delta, msg, ok := gobUint(msg)
		if !ok || delta != 1 {
			return 0, false
		}
		v, _, ok := gobUint(msg)
		if !ok || v&1 == 1 || v>>1 > math.MaxInt32 { // a non-negative int
			return 0, false
		}
		return int(v >> 1), true
	}
	return 0, false
}

// gobUint decodes one gob unsigned integer: a byte below 128 is the value;
// otherwise the byte is the negated count of big-endian bytes that follow.
func gobUint(b []byte) (uint64, []byte, bool) {
	if len(b) == 0 {
		return 0, nil, false
	}
	if b[0] < 0x80 {
		return uint64(b[0]), b[1:], true
	}
	n := 256 - int(b[0])
	if n > 8 || len(b) < 1+n {
		return 0, nil, false
	}
	var v uint64
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, b[1+n:], true
}

// checkIdentity refuses a snapshot of another version, algorithm or seed:
// those are part of the determinism contract, not per-device state.
func (s *Store) checkIdentity(sn *Snapshot) error {
	if sn.Version != snapshotVersion {
		return &VersionError{Got: sn.Version, Want: snapshotVersion}
	}
	if sn.Algorithm != s.cfg.Algorithm {
		return fmt.Errorf("serve: snapshot is %v state, store serves %v", sn.Algorithm, s.cfg.Algorithm)
	}
	if sn.Seed != s.cfg.Seed {
		return fmt.Errorf("serve: snapshot seed %d, store seed %d", sn.Seed, s.cfg.Seed)
	}
	return nil
}

// Restore replaces the store's device sessions with the snapshot's. The
// snapshot must come from a store with the same algorithm and seed.
// Existing sessions are dropped, not pooled, so the replaced store is
// garbage once Restore returns; restored sessions resume bit-identical to
// never having stopped.
func (s *Store) Restore(sn *Snapshot) error {
	restored, err := s.buildDevices(sn)
	if err != nil {
		return err
	}
	for si := range s.shards {
		sh := &s.shards[si]
		sh.mu.Lock()
		s.devices.Add(-int64(len(sh.devices)))
		clear(sh.devices)
		sh.mu.Unlock()
	}
	for i := range sn.Devices {
		id := sn.Devices[i].Device
		sh := &s.shards[s.shardIndex(id)]
		sh.mu.Lock()
		sh.devices[id] = restored[i]
		sh.mu.Unlock()
		s.devices.Add(1)
	}
	s.dropped.Store(sn.Dropped)
	return nil
}

// buildDevices reconstructs every session in the snapshot before any live
// state is touched, so a corrupt or out-of-bounds record cannot leave a
// store half-replaced. Each session is built in place in one new record,
// its generator state set, not seeded. Shared by Restore and RestoreRange.
func (s *Store) buildDevices(sn *Snapshot) ([]*device, error) {
	var now int64
	if s.cfg.EvictAfter > 0 {
		// Idle age does not survive a restart (lastTouch is bookkeeping, not
		// snapshot state): restored sessions count as just-touched, so a
		// sweep right after boot cannot mass-evict everything we restored.
		now = s.cfg.Clock().UnixNano()
	}
	restored := make([]*device, len(sn.Devices))
	err := s.eachRecord(sn, func(i int, ds *DeviceSnapshot) error {
		dev := new(device)
		dev.init(&s.cfg, ds.State.Available)
		dev.src.SetState(ds.Rng)
		if err := dev.policy.ImportState(&ds.State, &dev.rng); err != nil {
			return err
		}
		dev.pending, dev.slot, dev.lastTouch = ds.Pending, ds.Slot, now
		restored[i] = dev
		return nil
	})
	if err != nil {
		return nil, err
	}
	return restored, nil
}

// CheckSnapshot reports whether Restore and RestoreRange would accept sn,
// without touching the store: its version, algorithm and seed must match,
// and every record must decode to a state that passes Validate, keeps its
// switch-back windows within the policy's SwitchBackWindow
// (core.PolicyState.ValidateFor), and holds no more arms than MaxArms, the
// bound Select holds live requests to. Fleet staging calls it when a
// stripe is offered, so a commit cannot fail on a snapshot staging
// accepted. A record's error names its device.
func (s *Store) CheckSnapshot(sn *Snapshot) error {
	return s.eachRecord(sn, func(int, *DeviceSnapshot) error { return nil })
}

// eachRecord checks sn's identity, then decodes its records in index
// order through one reused DeviceSnapshot, checks each against the
// store's bounds (see CheckSnapshot) and hands it to fn, stopping at the
// first failure.
func (s *Store) eachRecord(sn *Snapshot, fn func(i int, ds *DeviceSnapshot) error) error {
	if err := s.checkIdentity(sn); err != nil {
		return err
	}
	var (
		ds  DeviceSnapshot
		r   frame.PayloadReader
		buf []byte
	)
	for i := range sn.Devices {
		rec := &sn.Devices[i]
		buf = append(buf[:0], rec.Record...)
		err := decodeRecord(&r, buf, &ds)
		if err == nil && ds.Device != rec.Device {
			err = fmt.Errorf("record holds device %d", ds.Device)
		}
		if err == nil {
			err = ds.State.ValidateFor(s.cfg.Policy)
		}
		if err == nil {
			err = ds.Rng.Validate()
		}
		if k := len(ds.State.Available); err == nil && k > s.cfg.MaxArms {
			err = fmt.Errorf("%d arms exceeds the %d limit", k, s.cfg.MaxArms)
		}
		if err == nil {
			err = fn(i, &ds)
		}
		if err != nil {
			return fmt.Errorf("serve: snapshot device %d: %w", rec.Device, err)
		}
	}
	return nil
}

// RestoreRange merges the snapshot's device sessions into the store
// without disturbing sessions outside it — the receiving half of a
// migration handoff, where Restore's replace-everything contract would
// destroy the peer's own devices. The snapshot must match the store's
// algorithm and seed; its Dropped count is ignored (the counter stays
// with the draining store). A session that already exists for a restored
// id is overwritten, and left to the garbage collector: the incoming copy
// is the newer truth, cut after writes to the range were barred on the old
// owner.
func (s *Store) RestoreRange(sn *Snapshot) error {
	restored, err := s.buildDevices(sn)
	if err != nil {
		return err
	}
	for i := range sn.Devices {
		id := sn.Devices[i].Device
		sh := &s.shards[s.shardIndex(id)]
		sh.mu.Lock()
		if sh.devices[id] != nil {
			s.devices.Add(-1)
		}
		sh.devices[id] = restored[i]
		sh.mu.Unlock()
		s.devices.Add(1)
	}
	return nil
}

// SaveFile snapshots the store to path atomically: the bytes land in a
// temporary file in the same directory and are renamed over the target, so
// a crash mid-write leaves the previous snapshot intact.
func (s *Store) SaveFile(path string) error {
	sn := s.Snapshot()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if err := sn.Encode(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("serve: save snapshot: %w", err)
	}
	return nil
}

// LoadFile restores the store from a snapshot file written by SaveFile.
func (s *Store) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("serve: load snapshot: %w", err)
	}
	defer f.Close()
	sn, err := ReadSnapshot(f)
	if err != nil {
		return err
	}
	return s.Restore(sn)
}
