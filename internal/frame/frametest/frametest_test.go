package frametest

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// recorder is a testing.TB that records what a check reports instead of
// failing the test running it. Fatalf ends the check's goroutine, as a
// real Fatalf does.
type recorder struct {
	testing.TB
	msgs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, a ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, a...))
}
func (r *recorder) Fatalf(format string, a ...any) { r.Errorf(format, a...); runtime.Goexit() }

// reports runs check on its own goroutine against a recorder and returns
// what it reported.
func reports(check func(tb testing.TB)) []string {
	r := &recorder{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		check(r)
	}()
	<-done
	return r.msgs
}

// wantReports fails t unless got is exactly want.
func wantReports(t *testing.T, what string, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s reported %q, want %q", what, got, want)
	}
}

// record has a leaf of every shape the walk reaches: a scalar, a struct
// field, a slice element, a pointer and an array's first and last words.
type record struct {
	ID    int64
	Inner struct {
		Gain  float64
		Names []string
	}
	Opt  *bool
	Ring [3]int
}

var recordScalars = Scalars{reflect.Int: 5, reflect.Int64: -7, reflect.Float64: 0.375, reflect.String: "x", reflect.Bool: true}

// TestCarriesEveryFieldNamesADroppedField passes a lossless codec leaf by
// leaf, and reports a codec that drops record.Inner.Gain by that path
// alone.
func TestCarriesEveryFieldNamesADroppedField(t *testing.T) {
	codec := func(drop bool) func(*record) (*record, error) {
		return func(r *record) (*record, error) {
			back := *r
			if drop {
				back.Inner.Gain = 0
			}
			return &back, nil
		}
	}
	leaves := 0
	wantReports(t, "a lossless codec", reports(func(tb testing.TB) {
		leaves = CarriesEveryField(tb, "record", recordScalars, nil, codec(false))
	}))
	if leaves != 6 {
		t.Fatalf("walked %d leaves of record, want 6", leaves)
	}
	wantReports(t, "a codec dropping Inner.Gain", reports(func(tb testing.TB) {
		CarriesEveryField(tb, "record", recordScalars, nil, codec(true))
	}), "record.Inner.Gain does not survive the codec (<nil>)")
}

// TestWalkReportsUnmetNotOnWireNames leaves out the field notOnWire names
// and reports the name the type does not have; a leaf of a kind with no
// scalar value is reported by path.
func TestWalkReportsUnmetNotOnWireNames(t *testing.T) {
	var leaves []Leaf
	wantReports(t, "a stale notOnWire name", reports(func(tb testing.TB) {
		leaves = Walk(tb, reflect.TypeFor[record](), "record", recordScalars, "record.Opt", "record.Gone")
	}), "notOnWire names record.Gone, which the walk never met")
	for _, l := range leaves {
		if l.Path == "record.Opt" {
			t.Fatal("the walk kept a field notOnWire names")
		}
	}
	noBool := Scalars{reflect.Int: 5, reflect.Int64: -7, reflect.Float64: 0.375, reflect.String: "x"}
	wantReports(t, "a bool leaf without a value", reports(func(tb testing.TB) {
		Walk(tb, reflect.TypeFor[record](), "record", noBool)
	}), "record.Opt: field of kind bool has no wire encoding")
}

// TestRefusesPrefixesCatchesAShortDecode passes a decoder that refuses
// every strict prefix, and catches one that accepts two bytes of four.
func TestRefusesPrefixesCatchesAShortDecode(t *testing.T) {
	p := []byte{1, 2, 3, 4}
	decoder := func(min int) func([]byte) error {
		return func(q []byte) error {
			if len(q) < min {
				return errors.New("short")
			}
			return nil
		}
	}
	wantReports(t, "a strict decoder", reports(func(tb testing.TB) { RefusesPrefixes(tb, "strict", p, decoder(4)) }))
	wantReports(t, "a lenient decoder", reports(func(tb testing.TB) { RefusesPrefixes(tb, "lenient", p, decoder(2)) }),
		"lenient: 2-byte prefix of a 4-byte payload decoded")
}
