package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Snapshot format:
//
//	magic   [4]byte  "SPF1"
//	flags   uint8    bit0 = StrictNonNegative
//	m       uvarint
//	adds    uvarint
//	removes uvarint
//	freqs   m × svarint (zigzag), in object-id order
//
// The block structure is not serialised; WriteSnapshot stores only the
// frequencies and ReadSnapshot rebuilds the sorted profile, which costs
// O(m log m) once rather than complicating the O(1) hot path.

var snapshotMagic = [4]byte{'S', 'P', 'F', '1'}

// snapshotChunk caps the frequencies ReadSnapshot allocates for before it
// has decoded any.
const snapshotChunk = 4096

// WriteSnapshot serialises the profile to w.
func (p *Profile) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	var flags byte
	if p.opts.StrictNonNegative {
		flags |= 1
	}
	if err := bw.WriteByte(flags); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	writeVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(p.m)); err != nil {
		return err
	}
	if err := writeUvarint(p.adds); err != nil {
		return err
	}
	if err := writeUvarint(p.removes); err != nil {
		return err
	}
	freqs := p.Frequencies(nil)
	for _, f := range freqs {
		if err := writeVarint(f); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot reconstructs a profile previously written by WriteSnapshot.
func ReadSnapshot(r io.Reader) (*Profile, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, magic[:])
	}
	flags, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	mu, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if mu > MaxCapacity {
		return nil, fmt.Errorf("%w: capacity %d exceeds limit", ErrBadSnapshot, mu)
	}
	adds, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	removes, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	// The header's m is unverified until its frequencies arrive, so freqs
	// starts at a bounded chunk and grows only with frequencies actually
	// decoded: each takes at least one input byte, so a corrupt or hostile
	// header costs memory in proportion to the input, not to m.
	freqs := make([]int64, 0, min(mu, snapshotChunk))
	for i := uint64(0); i < mu; i++ {
		f, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: frequency %d: %v", ErrBadSnapshot, i, err)
		}
		freqs = append(freqs, f)
	}
	var opts Options
	if flags&1 != 0 {
		opts.StrictNonNegative = true
	}
	p := newProfile(int32(mu), opts)
	p.loadFrequencies(freqs)
	p.adds = adds
	p.removes = removes
	return p, nil
}

// FromFrequencies builds a profile whose object x starts at frequency
// freqs[x]. It is equivalent to applying |freqs[x]| add/remove events per
// object but costs O(m log m) regardless of the magnitudes.
func FromFrequencies(freqs []int64, opts ...Option) (*Profile, error) {
	if len(freqs) > MaxCapacity {
		return nil, fmt.Errorf("%w: %d", ErrCapacity, len(freqs))
	}
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.StrictNonNegative {
		for x, f := range freqs {
			if f < 0 {
				return nil, fmt.Errorf("%w: object %d has frequency %d", ErrNegativeFrequency, x, f)
			}
		}
	}
	p := newProfile(int32(len(freqs)), o)
	p.loadFrequencies(freqs)
	// Attribute the initial state to synthetic events for bookkeeping.
	for _, f := range freqs {
		if f > 0 {
			p.adds += uint64(f)
		} else {
			p.removes += uint64(-f)
		}
	}
	return p, nil
}

// StrictNonNegative reports whether the profile was built with
// WithStrictNonNegative.
func (p *Profile) StrictNonNegative() bool { return p.opts.StrictNonNegative }

// LoadFrequencies replaces the profile's entire state: object x ends at
// frequency freqs[x] and the adds/removes counters are set to the given
// historical totals (they must net out to the summed frequencies). It is the
// restore half of checkpointing — unlike FromFrequencies it preserves the
// original event bookkeeping instead of synthesising a minimal one — and
// costs O(m log m). Validation happens before any mutation, so a failed load
// leaves the profile untouched.
func (p *Profile) LoadFrequencies(freqs []int64, adds, removes uint64) error {
	if len(freqs) != int(p.m) {
		return fmt.Errorf("%w: %d frequencies for capacity %d", ErrBadSnapshot, len(freqs), p.m)
	}
	var net int64
	for x, f := range freqs {
		if f < 0 && p.opts.StrictNonNegative {
			return fmt.Errorf("%w: object %d has frequency %d", ErrNegativeFrequency, x, f)
		}
		net += f
	}
	if int64(adds)-int64(removes) != net {
		return fmt.Errorf("%w: %d adds - %d removes does not net to total %d",
			ErrBadSnapshot, adds, removes, net)
	}
	p.loadFrequencies(freqs)
	p.adds = adds
	p.removes = removes
	return nil
}

// loadFrequencies overwrites the profile's state so that object x has
// frequency freqs[x]; len(freqs) must equal p.m.
func (p *Profile) loadFrequencies(freqs []int64) {
	m := int(p.m)
	// Sort packed (frequency, id) pairs rather than ids with an indirect
	// comparator: restore sorts hundreds of thousands of entries, and the
	// contiguous layout keeps the comparisons out of random memory.
	type freqID struct {
		f  int64
		id int32
	}
	order := make([]freqID, m)
	for i := range order {
		order[i] = freqID{f: freqs[i], id: int32(i)}
	}
	slices.SortFunc(order, func(a, b freqID) int {
		if a.f != b.f {
			if a.f < b.f {
				return -1
			}
			return 1
		}
		return int(a.id - b.id)
	})

	p.arena.reset()
	p.total = 0
	p.active = 0
	p.negative = 0
	for r := 0; r < m; r++ {
		x := order[r].id
		p.tToF[r] = x
		p.fToT[x] = int32(r)
	}
	for r := 0; r < m; {
		f := order[r].f
		end := r
		for end+1 < m && order[end+1].f == f {
			end++
		}
		h := p.arena.alloc(int32(r), int32(end), f)
		for i := r; i <= end; i++ {
			p.ptrB[i] = h
		}
		count := int64(end - r + 1)
		p.total += f * count
		if f > 0 {
			p.active += int32(count)
		}
		if f < 0 {
			p.negative += int32(count)
		}
		r = end + 1
	}
}

// Snapshot returns a point-in-time deep copy of the profile. It exists so
// that a plain Profile offers the same consistent-snapshot capability as the
// concurrency wrappers (see sprofile.Snapshotter); the error is always nil.
func (p *Profile) Snapshot() (*Profile, error) { return p.Clone(), nil }

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	q := &Profile{
		m:        p.m,
		opts:     p.opts,
		fToT:     append([]int32(nil), p.fToT...),
		tToF:     append([]int32(nil), p.tToF...),
		ptrB:     append([]int32(nil), p.ptrB...),
		arena:    &blockArena{slab: append([]block(nil), p.arena.slab...), free: p.arena.free, live: p.arena.live},
		total:    p.total,
		active:   p.active,
		negative: p.negative,
		adds:     p.adds,
		removes:  p.removes,
	}
	return q
}
