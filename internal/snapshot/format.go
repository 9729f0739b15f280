// The snapshot container and payload wire format.
//
// Layout (all integers little-endian):
//
//	offset  size  field
//	0       8     magic "MVSNAP01"
//	8       4     format version (currently 2)
//	12      4     flags (must be zero)
//	16      8     payload length
//	24      n     payload
//	24+n    4     CRC-32 (IEEE) of the payload
//
// The payload is a flat, deterministic serialization of the simulated
// machine state: no maps are walked in iteration order (every exporter
// sorts), no pointers, no timestamps, and no host-side interpreter
// state (an icache line is its PN, write-version and page bytes). Two
// snapshots of identical machine state are byte-equal, which is what
// makes Digest — the SHA-256 of the payload — a meaningful identity
// for a simulated machine instant.
//
// Decoding is defensive end to end: the CRC is verified before any
// parsing, every length is bounds-checked against the remaining
// payload, and a corrupt or truncated file yields an error, never a
// panic or a silently wrong machine (FuzzSnapshotDecode holds it to
// that).

package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
)

// Version is the current snapshot format version; Decode refuses any
// other.
const Version = 2

var magic = [8]byte{'M', 'V', 'S', 'N', 'A', 'P', '0', '1'}

// headerLen is the fixed container prefix before the payload.
const headerLen = 8 + 4 + 4 + 8

// maxPayload bounds a plausible payload; anything larger is corruption.
const maxPayload = 1 << 30

// seal completes a container in place: buf holds headerLen reserved
// bytes followed by the payload, and has exactly 4 bytes of spare
// capacity for the CRC, so sealing neither copies nor reallocates.
func seal(buf []byte) []byte {
	payload := buf[headerLen:]
	copy(buf, magic[:])
	binary.LittleEndian.PutUint32(buf[8:], Version)
	binary.LittleEndian.PutUint32(buf[12:], 0) // flags
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// unseal validates the container and returns the payload.
func unseal(data []byte) ([]byte, error) {
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("snapshot: truncated container (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:8])
	}
	ver := binary.LittleEndian.Uint32(data[8:12])
	if ver != Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (want %d)", ver, Version)
	}
	if flags := binary.LittleEndian.Uint32(data[12:16]); flags != 0 {
		return nil, fmt.Errorf("snapshot: unknown flags %#x", flags)
	}
	n := binary.LittleEndian.Uint64(data[16:24])
	if n > maxPayload {
		return nil, fmt.Errorf("snapshot: implausible payload length %d", n)
	}
	if uint64(len(data)) != headerLen+n+4 {
		return nil, fmt.Errorf("snapshot: container holds %d bytes, header promises %d",
			len(data), headerLen+n+4)
	}
	payload := data[headerLen : headerLen+n]
	want := binary.LittleEndian.Uint32(data[headerLen+n:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("snapshot: CRC mismatch (file corrupt): %#x != %#x", got, want)
	}
	return payload, nil
}

// Digest validates a serialized snapshot and returns the hex SHA-256
// of its payload — the stable identity of the captured machine state.
func Digest(data []byte) (string, error) {
	payload, err := unseal(data)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), nil
}

// writer builds a payload. Append-only, infallible. A sizing writer
// only counts the bytes it would append: Encode runs its body once
// sizing and once writing, so the output is allocated exactly once.
type writer struct {
	b      []byte
	sizing bool
	n      int // bytes counted while sizing
}

func (w *writer) u8(v uint8) {
	if w.sizing {
		w.n++
		return
	}
	w.b = append(w.b, v)
}

func (w *writer) u32(v uint32) {
	if w.sizing {
		w.n += 4
		return
	}
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}

func (w *writer) u64(v uint64) {
	if w.sizing {
		w.n += 8
		return
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

// raw appends v without a length prefix.
func (w *writer) raw(v []byte) {
	if w.sizing {
		w.n += len(v)
		return
	}
	w.b = append(w.b, v...)
}

func (w *writer) bytes(v []byte) {
	w.u32(uint32(len(v)))
	w.raw(v)
}

func (w *writer) str(v string) {
	w.u32(uint32(len(v)))
	if w.sizing {
		w.n += len(v)
		return
	}
	w.b = append(w.b, v...)
}

// reader parses a payload with sticky-error bounds checking: once any
// read runs past the end, every subsequent read returns zero values
// and the first error is reported — malformed input can never index
// out of range.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("truncated payload at offset %d (need %d of %d remaining)", r.off, n, len(r.b)-r.off)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) bytes() []byte {
	n := r.u32()
	if uint64(n) > uint64(len(r.b)) {
		r.fail("implausible byte-slice length %d", n)
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *reader) str() string { return string(r.bytes()) }

// count reads a collection length and sanity-bounds it by the minimum
// encoded size of one element, so a corrupt count cannot drive a huge
// allocation.
func (r *reader) count(elemMin int) int {
	n := r.u32()
	if elemMin > 0 && uint64(n)*uint64(elemMin) > uint64(len(r.b)) {
		r.fail("implausible element count %d", n)
		return 0
	}
	return int(n)
}
