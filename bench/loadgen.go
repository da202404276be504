package main

import "smartexp3/internal/rngutil"

// stream is one deterministic draw sequence of a workload, seeded
// rngutil.ChildSeed(seed, workload, id). Its draws never depend on the
// answers the system gives, so a replay regenerates the same requests.
type stream struct{ src *rngutil.Source }

func newStream(seed, workload, id int64) *stream {
	return &stream{src: rngutil.NewSource(rngutil.ChildSeed(seed, workload, id))}
}

func (s *stream) intn(n int) int { return int(s.src.Uint64() % uint64(n)) }

// float returns a uniform draw in [0, 1).
func (s *stream) float() float64 { return float64(s.src.Uint64()>>11) / (1 << 53) }
