// Package frametest is the shared test kit for the fixed-layout codecs
// built on package frame's field encodings: the cluster wire, the serve
// wire, the serve snapshot record and the fleet control wire. It holds
// checks only, never a codec, and only test files import it.
//
// A codec's tests use the kit to hold it to one contract:
//
//   - It carries every field. Each leaf field of the values it encodes,
//     set alone on a zero value, survives a round trip, except the fields
//     the test names as not on the wire; the walk must meet each of those
//     names, so the list cannot go stale (Walk, CarriesEveryField).
//   - It refuses every strict prefix of a payload rather than decoding it
//     short (RefusesPrefixes).
//   - No list it decodes is longer than the input that carried it, so a
//     hostile count can never size storage beyond the bytes that arrived
//     (ListsFit).
//   - Its checked-in fuzz seed corpus is exactly what its seed generator
//     writes (WriteCorpus, run with UPDATE_FUZZ_CORPUS=1).
//
// The round trips that compare a codec against encoding/gob, the wire it
// replaced, stay in each package's _test.go files: no non-test file may
// import encoding/gob, and this package is not a test file.
package frametest

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// Leaf is one leaf field of a walked type: its path, and a setter that
// sets that field alone inside a zero value of the type, allocating the
// pointers and one-element slices on the way to it.
type Leaf struct {
	Path string
	Set  func(v reflect.Value)
}

// Scalars maps each scalar kind a codec carries to the value a walk sets
// a leaf of that kind to. The value is converted to the field's type, so
// one entry serves every named type of its kind. Choose values the
// codec's decoder accepts as they are.
type Scalars map[reflect.Kind]any

// Walk returns one Leaf per leaf field of typ, each path rooted at root.
// It reaches through structs, pointers (allocated), slices (one element)
// and arrays (the first and the last element). A field whose path
// notOnWire names is left out. Each name on notOnWire the walk never
// meets fails tb, and so does each leaf of a kind scalars has no value
// for.
func Walk(tb testing.TB, typ reflect.Type, root string, scalars Scalars, notOnWire ...string) []Leaf {
	tb.Helper()
	met := make(map[string]bool, len(notOnWire))
	for _, path := range notOnWire {
		met[path] = false
	}
	leaves := walk(tb, typ, root, scalars, met)
	for _, path := range notOnWire {
		if !met[path] {
			tb.Errorf("notOnWire names %s, which the walk never met", path)
		}
	}
	return leaves
}

func walk(tb testing.TB, typ reflect.Type, path string, scalars Scalars, skip map[string]bool) []Leaf {
	tb.Helper()
	var out []Leaf
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			p := typ.Field(i).Name
			if path != "" {
				p = path + "." + p
			}
			if _, ok := skip[p]; ok {
				skip[p] = true
				continue
			}
			for _, l := range walk(tb, typ.Field(i).Type, p, scalars, skip) {
				out = append(out, Leaf{l.Path, func(v reflect.Value) { l.Set(v.Field(i)) }})
			}
		}
	case reflect.Pointer:
		for _, l := range walk(tb, typ.Elem(), path, scalars, skip) {
			out = append(out, Leaf{l.Path, func(v reflect.Value) {
				v.Set(reflect.New(typ.Elem()))
				l.Set(v.Elem())
			}})
		}
	case reflect.Slice:
		for _, l := range walk(tb, typ.Elem(), path+"[0]", scalars, skip) {
			out = append(out, Leaf{l.Path, func(v reflect.Value) {
				v.Set(reflect.MakeSlice(typ, 1, 1))
				l.Set(v.Index(0))
			}})
		}
	case reflect.Array:
		for _, i := range []int{0, typ.Len() - 1} {
			for _, l := range walk(tb, typ.Elem(), fmt.Sprintf("%s[%d]", path, i), scalars, skip) {
				out = append(out, Leaf{l.Path, func(v reflect.Value) { l.Set(v.Index(i)) }})
			}
		}
	default:
		x, ok := scalars[typ.Kind()]
		if !ok {
			tb.Errorf("%s: field of kind %s has no wire encoding", path, typ.Kind())
			break
		}
		out = append(out, Leaf{path, func(v reflect.Value) { v.Set(reflect.ValueOf(x).Convert(v.Type())) }})
	}
	return out
}

// CarriesEveryField walks T (see Walk) and passes, for each leaf, a zero
// T with only that leaf set through roundTrip. A leaf that does not come
// back equal under reflect.DeepEqual fails tb by its path, so a field
// added to T can never silently drop off the wire: the codec carries it,
// or notOnWire names it. It returns the number of leaves walked, for the
// caller's floor on the walk.
func CarriesEveryField[T any](tb testing.TB, root string, scalars Scalars, notOnWire []string, roundTrip func(*T) (*T, error)) int {
	tb.Helper()
	leaves := Walk(tb, reflect.TypeFor[T](), root, scalars, notOnWire...)
	for _, l := range leaves {
		var want T
		l.Set(reflect.ValueOf(&want).Elem())
		if got, err := roundTrip(&want); err != nil || !reflect.DeepEqual(got, &want) {
			tb.Errorf("%s does not survive the codec (%v)", l.Path, err)
		}
	}
	return len(leaves)
}

// RefusesPrefixes fails tb, naming the sample name, when decode accepts
// any strict prefix of p.
func RefusesPrefixes(tb testing.TB, name string, p []byte, decode func([]byte) error) {
	tb.Helper()
	for n := 0; n < len(p); n++ {
		if decode(p[:n]) == nil {
			tb.Fatalf("%s: %d-byte prefix of a %d-byte payload decoded", name, n, len(p))
		}
	}
}

// ListsFit fails tb when a slice reachable from v, through pointers,
// slices and struct fields, is longer than input, the bytes v was
// decoded from.
func ListsFit(tb testing.TB, v any, input []byte) {
	tb.Helper()
	if n := longestList(reflect.ValueOf(v)); n > len(input) {
		tb.Fatalf("decoded a %d-element list from a %d-byte input", n, len(input))
	}
}

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

// Same is reflect.DeepEqual except that two floats with the same bits
// are equal, so a value can carry NaN. Like DeepEqual it tells a nil
// slice or pointer from a non-nil one, holds −0 equal to +0 (gob drops a
// −0 struct field as a zero value; the codecs keep its bits) and holds
// two funcs equal only when both are nil.
func Same(a, b any) bool { return same(reflect.ValueOf(a), reflect.ValueOf(b)) }

func same(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Func:
		return a.IsNil() && b.IsNil()
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return a.Elem().Type() == b.Elem().Type() && same(a.Elem(), b.Elem())
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		return x == y || math.Float64bits(x) == math.Float64bits(y)
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return same(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !same(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !same(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}
