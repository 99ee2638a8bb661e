package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"sprofile/internal/core"
)

// allocDuring reports how many bytes f allocated.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// withCRC appends the checksum footer to a snapshot body.
func withCRC(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.ChecksumIEEE(body))
}

// keyedHeader is the body of a keyed snapshot that declares capacity and
// count keys but carries no key entries.
func keyedHeader(capacity, count uint64) []byte {
	b := append(snapMagic[:], snapVersion, kindKeyed)
	for _, v := range []uint64{1, 0, capacity, 0, 0, count} { // seq, sealed, capacity, adds, removes, count
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// A declared key count is not evidence of key entries: a checksum-valid
// keyed snapshot claiming the largest capacity and as many keys, but
// carrying none, must fail without allocating for the declared keys.
func TestDecodeStateHugeCountAllocatesLittle(t *testing.T) {
	data := withCRC(keyedHeader(core.MaxCapacity, core.MaxCapacity))
	var err error
	alloc := allocDuring(func() { _, err = decodeState(data) })
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("decodeState(count=MaxCapacity, no entries) = %v, want ErrBadSnapshot", err)
	}
	if alloc >= 1<<20 {
		t.Errorf("decodeState(count=MaxCapacity, no entries) allocated %d bytes, want < 1 MiB", alloc)
	}
}

// sameState reports whether two decoded states describe the same profile.
func sameState(a, b *State) bool {
	if a.Keyed != b.Keyed || a.Seq != b.Seq || a.SealedSeg != b.SealedSeg ||
		a.Capacity != b.Capacity || a.Adds != b.Adds || a.Removes != b.Removes ||
		!slices.Equal(a.Keys, b.Keys) || !slices.Equal(a.Freqs, b.Freqs) {
		return false
	}
	if a.Keyed {
		return true
	}
	return a.Dense.StrictNonNegative() == b.Dense.StrictNonNegative() &&
		slices.Equal(a.Dense.Frequencies(nil), b.Dense.Frequencies(nil))
}

// FuzzDecodeState runs its seeds as a regression test under go test and can
// be expanded with go test -fuzz=FuzzDecodeState. The fuzzer mutates the
// snapshot body and the harness appends a matching checksum, so inputs reach
// the payload decoders instead of stopping at the CRC. The decoder must
// never panic, must allocate in proportion to its input rather than to the
// counts a header declares, and must restore exactly what encodeState wrote.
func FuzzDecodeState(f *testing.F) {
	var seeds []*State
	for _, m := range []int{0, 1, 9} {
		p, err := core.New(m)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 3*m; i++ {
			_ = p.Add(i * i % m)
		}
		adds, removes := p.Events()
		seeds = append(seeds, &State{Dense: p, Capacity: m, Adds: adds, Removes: removes, Seq: uint64(m), SealedSeg: 2})
	}
	seeds = append(seeds,
		&State{Keyed: true, Capacity: 4, Seq: 1},
		&State{Keyed: true, Keys: []string{"a", "", "ünïcode", "a-longer-key"}, Freqs: []int64{3, 1, -2, 1 << 40},
			Capacity: 16, Adds: 9, Removes: 4, Seq: 7, SealedSeg: 3})
	for _, st := range seeds {
		var buf bytes.Buffer
		if err := encodeState(&buf, st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[:buf.Len()-4])
	}
	f.Add(keyedHeader(core.MaxCapacity, core.MaxCapacity))

	f.Fuzz(func(t *testing.T, body []byte) {
		data := withCRC(body)
		var st *State
		var err error
		alloc := allocDuring(func() { st, err = decodeState(data) })
		// Every key entry takes at least two input bytes, and a restored
		// dense slot costs a bounded number of bytes of state.
		if limit := uint64(64<<10 + 256*len(data)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, want <= %d", len(data), alloc, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("rejection %v does not match ErrBadSnapshot", err)
			}
			return
		}
		var enc bytes.Buffer
		if err := encodeState(&enc, st); err != nil {
			t.Fatalf("re-encoding an accepted state: %v", err)
		}
		again, err := decodeState(enc.Bytes())
		if err != nil {
			t.Fatalf("decoding an encoded state: %v", err)
		}
		if !sameState(st, again) {
			t.Fatalf("decodeState(encodeState(st)) differs from st")
		}
	})
}
