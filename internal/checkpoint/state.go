// Package checkpoint is the persistence subsystem around the segmented
// write-ahead log: atomic snapshots, log rotation and truncation, and
// bounded-time recovery.
//
// A checkpointed log directory holds rotating WAL segments (see
// internal/wal) plus snapshot files
//
//	snap-<seq, 16 hex digits>.sks
//
// Each snapshot is written to a .tmp file, fsynced, atomically renamed into
// place, and only then are the WAL segments it covers deleted — so at every
// instant the directory contains a valid snapshot (or none) plus the
// segments needed to roll it forward to the latest appended record. Recovery
// is: load the newest valid snapshot, replay only the segments after the one
// it sealed. Both recovery time and disk footprint are therefore bounded by
// the checkpoint cadence, not by the full ingest history.
//
// Snapshot file format ("SKS1"):
//
//	magic    [4]byte  "SKS1"
//	version  1 byte   (1)
//	kind     1 byte   0 = dense, 1 = keyed
//	seq      uvarint  snapshot sequence number
//	sealed   uvarint  id of the last WAL segment the snapshot covers
//	payload:
//	  dense:  an SPF1 blob (core.WriteSnapshot) — frequencies, event
//	          counters and flags of a dense-id profile
//	  keyed:  capacity, adds, removes, count uvarints, then count ×
//	          (keyLen uvarint, key bytes, frequency svarint) — the key
//	          table and per-key frequencies of a keyed profile
//	crc      uint32 little-endian, IEEE CRC-32 of all preceding bytes
//
// The trailing checksum lets recovery reject a snapshot damaged after the
// fact and fall back to the previous one.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"sprofile/internal/core"
)

// ErrBadSnapshot is returned when a snapshot file cannot be decoded.
var ErrBadSnapshot = errors.New("checkpoint: invalid snapshot")

var snapMagic = [4]byte{'S', 'K', 'S', '1'}

const (
	snapVersion = 1

	kindDense byte = 0
	kindKeyed byte = 1
)

// State is one snapshot's decoded payload: the complete image of a profile
// at a checkpoint, sufficient to rebuild it without replaying the events the
// snapshot covers.
type State struct {
	// Keyed distinguishes the two payload kinds.
	Keyed bool

	// Dense is the dense-id profile image (dense snapshots only).
	Dense *core.Profile

	// Keys and Freqs are parallel: key Keys[i] held frequency Freqs[i]
	// (keyed snapshots only). Dense ids are deliberately absent — they are
	// reassigned when the keys are re-acquired during restore, because the
	// stripe hashing that places keys is seeded per process.
	Keys  []string
	Freqs []int64

	// Capacity, Adds and Removes mirror the profile's bookkeeping so a
	// restore reproduces Summarize() exactly, not just the frequencies.
	Capacity int
	Adds     uint64
	Removes  uint64

	// Seq and SealedSeg are assigned by the Store when the snapshot is
	// written: its sequence number and the last WAL segment it covers.
	Seq       uint64
	SealedSeg uint64
}

// Objects returns how many objects the snapshot carries state for: tracked
// keys for a keyed snapshot, slots with nonzero frequency for a dense one.
func (st *State) Objects() int {
	if st.Keyed {
		return len(st.Keys)
	}
	if st.Dense == nil {
		return 0
	}
	n := 0
	for _, f := range st.Dense.Frequencies(nil) {
		if f != 0 {
			n++
		}
	}
	return n
}

// encodeState writes the snapshot file body (header, payload, checksum).
func encodeState(w io.Writer, st *State) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	h := crc32.NewIEEE()
	tw := io.MultiWriter(bw, h)

	if _, err := tw.Write(snapMagic[:]); err != nil {
		return err
	}
	kind := kindDense
	if st.Keyed {
		kind = kindKeyed
	}
	if _, err := tw.Write([]byte{snapVersion, kind}); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := tw.Write(buf[:n])
		return err
	}
	writeVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := tw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(st.Seq); err != nil {
		return err
	}
	if err := writeUvarint(st.SealedSeg); err != nil {
		return err
	}
	if st.Keyed {
		if len(st.Keys) != len(st.Freqs) {
			return fmt.Errorf("checkpoint: %d keys but %d frequencies", len(st.Keys), len(st.Freqs))
		}
		if err := writeUvarint(uint64(st.Capacity)); err != nil {
			return err
		}
		if err := writeUvarint(st.Adds); err != nil {
			return err
		}
		if err := writeUvarint(st.Removes); err != nil {
			return err
		}
		if err := writeUvarint(uint64(len(st.Keys))); err != nil {
			return err
		}
		for i, key := range st.Keys {
			if err := writeUvarint(uint64(len(key))); err != nil {
				return err
			}
			if _, err := io.WriteString(tw, key); err != nil {
				return err
			}
			if err := writeVarint(st.Freqs[i]); err != nil {
				return err
			}
		}
	} else {
		if st.Dense == nil {
			return errors.New("checkpoint: dense snapshot without a profile")
		}
		// WriteSnapshot buffers and flushes internally, so the SPF1 blob
		// lands in tw in full before the checksum is taken.
		if err := st.Dense.WriteSnapshot(tw); err != nil {
			return err
		}
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], h.Sum32())
	if _, err := bw.Write(crc[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// decodeState parses a snapshot file body, verifying the checksum first. It
// walks the byte slice directly — recovery decodes hundreds of thousands of
// keys, and a reader interface would double the per-key allocations.
func decodeState(data []byte) (*State, error) {
	if len(data) < 4+2+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadSnapshot, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	if [4]byte(body[:4]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if body[4] != snapVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadSnapshot, body[4])
	}
	kind := body[5]
	rest := body[6:]
	st := &State{}
	readUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated varint", ErrBadSnapshot)
		}
		rest = rest[n:]
		return v, nil
	}
	var err error
	if st.Seq, err = readUvarint(); err != nil {
		return nil, err
	}
	if st.SealedSeg, err = readUvarint(); err != nil {
		return nil, err
	}
	switch kind {
	case kindDense:
		p, err := core.ReadSnapshot(bytes.NewReader(rest))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		st.Dense = p
		st.Capacity = p.Cap()
		st.Adds, st.Removes = p.Events()
	case kindKeyed:
		st.Keyed = true
		capacity, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if capacity > uint64(core.MaxCapacity) {
			return nil, fmt.Errorf("%w: capacity %d exceeds limit", ErrBadSnapshot, capacity)
		}
		st.Capacity = int(capacity)
		if st.Adds, err = readUvarint(); err != nil {
			return nil, err
		}
		if st.Removes, err = readUvarint(); err != nil {
			return nil, err
		}
		count, err := readUvarint()
		if err != nil {
			return nil, err
		}
		if count > capacity {
			return nil, fmt.Errorf("%w: %d keys exceed capacity %d", ErrBadSnapshot, count, capacity)
		}
		// Every entry takes at least two bytes (a key length and a
		// frequency), so a count the remaining bytes cannot hold is refused
		// before anything is sized by it.
		if count > uint64(len(rest)/2) {
			return nil, fmt.Errorf("%w: %d keys in %d bytes", ErrBadSnapshot, count, len(rest))
		}
		st.Keys = make([]string, 0, count)
		st.Freqs = make([]int64, 0, count)
		for i := uint64(0); i < count; i++ {
			keyLen, err := readUvarint()
			if err != nil {
				return nil, err
			}
			if keyLen > uint64(len(rest)) {
				return nil, fmt.Errorf("%w: key length %d", ErrBadSnapshot, keyLen)
			}
			key := string(rest[:keyLen])
			rest = rest[keyLen:]
			f, n := binary.Varint(rest)
			if n <= 0 {
				return nil, fmt.Errorf("%w: frequency of key %d", ErrBadSnapshot, i)
			}
			rest = rest[n:]
			st.Keys = append(st.Keys, key)
			st.Freqs = append(st.Freqs, f)
		}
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrBadSnapshot, kind)
	}
	return st, nil
}
