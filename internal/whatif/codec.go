package whatif

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
)

// Canonical snapshot encoding: a reflective walk over the Snapshot's fields
// in declaration order, sealed in a versioned envelope.
//
//	magic "AMPW" | uvarint version | body | crc32-IEEE(magic..body) LE
//
// Signed integers are zigzag varints and unsigned ones uvarints, so the size
// tracks live state, not field widths. Floats are 8 little-endian IEEE bytes,
// so NaN payloads and signed zeros compare by bit (Verify depends on it).
// Strings and slices are a uvarint length then the contents; fixed arrays
// are the contents alone; a pointer is a presence byte then the value. Any
// other kind panics, so a state field of a new kind cannot slip past Verify.
//
// There is no decoder: a snapshot is a witness that a rebuilt run is
// compared with, never a file that is read back (DESIGN.md §9). The envelope
// stays so that the printed witness sizes stay fixed.

// codecVersion is bumped on any change to the encoded field set or order.
const codecVersion = 1

var codecMagic = [4]byte{'A', 'M', 'P', 'W'}

// Encode returns the snapshot's canonical encoding. It is a pure function of
// the snapshot value: equal snapshots encode to equal bytes (the Verify
// contract).
func Encode(s *Snapshot) []byte {
	b := append(make([]byte, 0, 1024), codecMagic[:]...)
	b = binary.AppendUvarint(b, codecVersion)
	b = appendValue(b, reflect.ValueOf(s).Elem())
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// appendValue appends v's encoding to b.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.String:
		return append(binary.AppendUvarint(b, uint64(v.Len())), v.String()...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendValue(append(b, 1), v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			b = appendValue(b, v.Field(i))
		}
		return b
	}
	panic(fmt.Sprintf("whatif: cannot encode a %s (%s)", v.Kind(), v.Type()))
}

// firstDiff walks a and b (values of one type) as appendValue does and
// names the first leaf, length or presence whose encoding differs, e.g.
// "Domains[0].Stats.FreezeOps: 14 vs 15"; "" when they encode alike.
func firstDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := range a.Len() {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: %s vs %s", path, presence(a), presence(b))
		}
		if a.IsNil() {
			return ""
		}
		return firstDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			name := a.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			if d := firstDiff(name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	}
	if string(appendValue(nil, a)) != string(appendValue(nil, b)) {
		return fmt.Sprintf("%s: %v vs %v", path, a, b)
	}
	return ""
}

func presence(p reflect.Value) string {
	if p.IsNil() {
		return "nil"
	}
	return "set"
}
