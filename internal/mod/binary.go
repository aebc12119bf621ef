package mod

// Binary persistence: a compact journal/snapshot/wire codec that can
// represent the engine's full value domain. encoding/json rejects the
// non-finite floats the model is built out of (a database seeded at
// tau = -Inf, open-ended trajectory pieces ending at +Inf, unbounded
// query horizons) and dominates the ingest profile; this codec stores
// raw IEEE-754 bits so every float round-trips by construction, and
// frames records with a length prefix plus a CRC so recovery can tell
// a torn tail from corruption without parsing heuristics.
//
// Journal stream layout (what Journal writes and ReplayTolerantBinary
// reads):
//
//	header  = magic "MODJ" | version byte (1)
//	record  = uvarint len(payload) | payload | crc32c(payload) LE32
//	payload = kind byte | uvarint oid | tau bits LE64
//	        | uvarint len(A) | A bits LE64...
//	        | uvarint len(B) | B bits LE64...
//
// Snapshot layout (SaveBinary/LoadBinary):
//
//	magic "MODS" | version byte (3) | body | crc32c(body) LE32
//	body = uvarint dim | tau bits LE64
//	     | uvarint #objects | object...   (ascending OID)
//	     | uvarint #bounds  | bound...    (ascending OID)
//	object = uvarint oid | uvarint #pieces | piece...
//	piece  = start bits LE64 | end bits LE64 | dim A bits | dim B bits
//	bound  = uvarint oid | vmax bits LE64
//
// The body is the state (O, T, tau) and nothing else, so its size is a
// function of the state, not of the history that produced it. Versions
// 1 and 2 carried the applied-update log as well; they are refused with
// an error naming the conversion (open the file with a build at or
// before commit dfaf821, then checkpoint or re-save it).
//
// Wire batch layout (EncodeUpdatesBinary/DecodeUpdatesBinary, the
// POST /update/batch binary body):
//
//	magic "MODU" | version byte (1) | record... (journal framing)
//
// The version byte is the migration story: readers reject versions they
// do not know. This is the one snapshot format: the durable store, GET
// /snapshot and the command-line tools all read and write it.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/geom"
	"repro/internal/trajectory"
)

// binaryVersion is the current version byte of the journal and wire
// layouts. Adding the speed-bound update kind (payload layout unchanged,
// one more kind byte value) did not bump it: new readers accept the new
// kind, and the framing is identical.
const binaryVersion = 1

// snapVersion is the version byte SaveBinary writes and the only one
// LoadBinary reads.
const snapVersion = 3

// BinaryJournalHeaderLen is the size of the header a binary journal
// segment starts with (magic + version).
const BinaryJournalHeaderLen = 5

// maxBinaryRecord bounds a framed record's payload so a corrupt length
// prefix cannot drive a giant allocation. Real records are tiny
// (tens of bytes for any sane dimension).
const maxBinaryRecord = 1 << 24

// BinaryUpdatesContentType is the Content-Type announcing a binary
// update batch on the ingest endpoint.
const BinaryUpdatesContentType = "application/x-mod-updates"

var (
	journalMagic = [4]byte{'M', 'O', 'D', 'J'}
	snapMagic    = [4]byte{'M', 'O', 'D', 'S'}
	wireMagic    = [4]byte{'M', 'O', 'D', 'U'}

	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// BinaryJournalHeader returns the 5-byte header a fresh binary journal
// segment must start with. The durable store writes it immediately
// after creating a segment file, before any record can be appended.
func BinaryJournalHeader() []byte {
	return []byte{journalMagic[0], journalMagic[1], journalMagic[2], journalMagic[3], binaryVersion}
}

// CheckSnapshotHeader checks hdr, the first BinaryJournalHeaderLen
// bytes of a snapshot, for the magic and the version this build reads.
// A version-1 or -2 snapshot (one that carried the update log) is
// refused with an error naming the conversion.
func CheckSnapshotHeader(hdr []byte) error {
	if len(hdr) < BinaryJournalHeaderLen {
		return fmt.Errorf("mod: binary snapshot truncated (%d bytes)", len(hdr))
	}
	if [4]byte(hdr[:4]) != snapMagic {
		return fmt.Errorf("mod: not a binary snapshot (magic %q)", hdr[:4])
	}
	switch v := hdr[4]; {
	case v == 1 || v == 2:
		return fmt.Errorf("mod: binary snapshot version %d carries an update log and this build reads only "+
			"version %d: convert it by opening it with a build at or before commit dfaf821, then checkpoint "+
			"or re-save it", v, snapVersion)
	case v != snapVersion:
		return fmt.Errorf("mod: binary snapshot version %d, this build reads only version %d", v, snapVersion)
	}
	return nil
}

// appendFloat appends the raw IEEE-754 bits of v, little-endian.
func appendFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// appendVec appends a length-prefixed vector as raw float bits.
func appendVec(buf []byte, v geom.Vec) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	for _, x := range v {
		buf = appendFloat(buf, x)
	}
	return buf
}

// appendUpdatePayload appends the unframed payload encoding of u.
func appendUpdatePayload(buf []byte, u Update) []byte {
	buf = append(buf, byte(u.Kind))
	buf = binary.AppendUvarint(buf, uint64(u.O))
	buf = appendFloat(buf, u.Tau)
	buf = appendVec(buf, u.A)
	buf = appendVec(buf, u.B)
	return buf
}

// AppendUpdateRecord appends the framed record encoding of u
// (length prefix, payload, CRC) and returns the extended buffer. This
// is the journal's encode path: callers reuse buf across records so the
// steady state allocates nothing.
func AppendUpdateRecord(buf []byte, u Update) []byte {
	payload := appendUpdatePayload(nil, u)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
}

// errTruncated marks a decode that ran out of bytes mid-value.
var errTruncated = errors.New("mod: binary value truncated")

// binCursor walks a byte slice with bounds-checked primitive reads.
type binCursor struct {
	p []byte
}

func (c *binCursor) byte() (byte, error) {
	if len(c.p) < 1 {
		return 0, errTruncated
	}
	b := c.p[0]
	c.p = c.p[1:]
	return b, nil
}

func (c *binCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.p)
	if n <= 0 {
		return 0, errTruncated
	}
	c.p = c.p[n:]
	return v, nil
}

func (c *binCursor) float() (float64, error) {
	if len(c.p) < 8 {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.p))
	c.p = c.p[8:]
	return v, nil
}

func (c *binCursor) vec() (geom.Vec, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(len(c.p)/8) {
		return nil, errTruncated
	}
	v := make(geom.Vec, n)
	for i := range v {
		v[i], _ = c.float()
	}
	return v, nil
}

// decodeUpdatePayload decodes one unframed update payload. The whole
// slice must be consumed: trailing bytes in a CRC-valid record mean the
// writer and reader disagree about the format.
func decodeUpdatePayload(p []byte) (Update, error) {
	c := binCursor{p: p}
	u, err := c.update()
	if err != nil {
		return Update{}, err
	}
	if len(c.p) != 0 {
		return Update{}, fmt.Errorf("mod: binary update has %d trailing bytes", len(c.p))
	}
	return u, nil
}

// update decodes one update payload from the cursor, leaving it at the
// first byte after the payload.
func (c *binCursor) update() (Update, error) {
	kind, err := c.byte()
	if err != nil {
		return Update{}, err
	}
	if kind > byte(KindBound) {
		return Update{}, fmt.Errorf("mod: unknown binary update kind %d", kind)
	}
	oid, err := c.uvarint()
	if err != nil {
		return Update{}, err
	}
	tau, err := c.float()
	if err != nil {
		return Update{}, err
	}
	a, err := c.vec()
	if err != nil {
		return Update{}, err
	}
	b, err := c.vec()
	if err != nil {
		return Update{}, err
	}
	return Update{Kind: UpdateKind(kind), O: OID(oid), Tau: tau, A: a, B: b}, nil
}

// readUvarint reads a varint byte-by-byte from br, returning the number
// of bytes consumed. io.EOF with zero bytes consumed is a clean end of
// stream; a varint cut off mid-value returns io.ErrUnexpectedEOF.
func readUvarint(br *bufio.Reader) (uint64, int, error) {
	var v uint64
	var shift uint
	n := 0
	for {
		b, err := br.ReadByte()
		if err == io.EOF {
			if n == 0 {
				return 0, 0, io.EOF
			}
			return 0, n, io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, n, err
		}
		n++
		if shift >= 64 || (shift == 63 && b > 1) {
			return 0, n, fmt.Errorf("mod: binary length varint overflows")
		}
		if b < 0x80 {
			return v | uint64(b)<<shift, n, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// ReplayTolerantBinary applies a binary journal stream to db, skipping
// entries rejected by Apply (chronology duplicates over a snapshot,
// stale objects) and tolerating a torn tail. A record cut off mid-frame
// at the end of the stream — or whose CRC fails with nothing after it —
// is the signature of a crash mid-append: it is dropped and reported in
// the stats rather than failing recovery. A CRC failure or undecodable
// record with further data after it is real corruption and aborts with
// an error; everything decoded up to that point stays applied and is
// reflected in the stats. Truncating the segment at GoodBytes and
// appending fresh records yields a well-formed journal. A stream torn
// inside the 5-byte header reports GoodBytes 0; the store rewrites the
// header before appending.
func ReplayTolerantBinary(db *DB, r io.Reader) (ReplayStats, error) {
	var st ReplayStats
	br := bufio.NewReader(r)
	hdr := make([]byte, BinaryJournalHeaderLen)
	if n, err := io.ReadFull(br, hdr); err == io.EOF {
		return st, nil // empty segment: crash before the header write
	} else if err == io.ErrUnexpectedEOF {
		st.TornTail = true
		st.TailBytes = n
		return st, nil
	} else if err != nil {
		return st, fmt.Errorf("mod: binary journal header: %w", err)
	}
	if [4]byte(hdr[:4]) != journalMagic {
		return st, fmt.Errorf("mod: not a binary journal (magic %q)", hdr[:4])
	}
	if hdr[4] != binaryVersion {
		return st, fmt.Errorf("mod: binary journal version %d, this build reads %d", hdr[4], binaryVersion)
	}
	st.GoodBytes = BinaryJournalHeaderLen
	for {
		ln, lb, err := readUvarint(br)
		if err == io.EOF {
			return st, nil
		}
		if err == io.ErrUnexpectedEOF {
			st.TornTail = true
			st.TailBytes = lb
			return st, nil
		}
		if err != nil {
			return st, fmt.Errorf("mod: binary journal entry %d at byte %d: %w",
				st.Applied+st.Skipped, st.GoodBytes, err)
		}
		if ln > maxBinaryRecord {
			return st, fmt.Errorf("mod: binary journal entry %d at byte %d: length %d exceeds limit",
				st.Applied+st.Skipped, st.GoodBytes, ln)
		}
		frame := make([]byte, int(ln)+4)
		fn, ferr := io.ReadFull(br, frame)
		if ferr == io.EOF || ferr == io.ErrUnexpectedEOF {
			st.TornTail = true
			st.TailBytes = lb + fn
			return st, nil
		}
		if ferr != nil {
			return st, fmt.Errorf("mod: binary journal read at byte %d: %w", st.GoodBytes, ferr)
		}
		payload := frame[:ln]
		wantSum := binary.LittleEndian.Uint32(frame[ln:])
		if crc32.Checksum(payload, crcTable) != wantSum {
			// A bad checksum on the final record is a torn write; with
			// data after it, it is mid-journal corruption.
			if _, perr := br.Peek(1); perr == io.EOF {
				st.TornTail = true
				st.TailBytes = lb + len(frame)
				return st, nil
			}
			return st, fmt.Errorf("mod: binary journal entry %d at byte %d: checksum mismatch",
				st.Applied+st.Skipped, st.GoodBytes)
		}
		u, derr := decodeUpdatePayload(payload)
		if derr != nil {
			if _, perr := br.Peek(1); perr == io.EOF {
				st.TornTail = true
				st.TailBytes = lb + len(frame)
				return st, nil
			}
			return st, fmt.Errorf("mod: binary journal entry %d at byte %d: %w",
				st.Applied+st.Skipped, st.GoodBytes, derr)
		}
		if aerr := db.Apply(u); aerr != nil {
			st.Skipped++
		} else {
			st.Applied++
		}
		st.GoodBytes += int64(lb + len(frame))
	}
}

// SaveBinary writes a binary snapshot of the database's current epoch
// to w; see (*Snap).SaveBinary.
func (db *DB) SaveBinary(w io.Writer) error { return db.EpochSnapshot().SaveBinary(w) }

// SaveBinary writes the snapshot to w in the raw-bits layout: dimension,
// tau, every trajectory piece and the declared speed bounds, with a
// trailing CRC over the body. It represents every reachable state,
// including the -Inf seed tau and open-ended pieces, bit for bit.
// The body is built once in a buffer sized from the piece counts, and
// header, body and CRC go to w in turn, so no second copy of the
// snapshot is alive while it is written.
func (s *Snap) SaveBinary(w io.Writer) error {
	oids := s.Objects()
	pieceBytes := (2 + 2*s.dim) * 8
	size := 4*binary.MaxVarintLen64 + len(s.bounds)*(binary.MaxVarintLen64+8)
	for _, tr := range s.objs {
		size += 2*binary.MaxVarintLen64 + tr.NumPieces()*pieceBytes
	}
	body := make([]byte, 0, size)
	body = binary.AppendUvarint(body, uint64(s.dim))
	body = appendFloat(body, s.tau)
	body = binary.AppendUvarint(body, uint64(len(oids)))
	for _, o := range oids {
		tr := s.objs[o]
		body = binary.AppendUvarint(body, uint64(o))
		body = binary.AppendUvarint(body, uint64(tr.NumPieces()))
		for i := 0; i < tr.NumPieces(); i++ {
			pc := tr.PieceAt(i)
			body = appendFloat(body, pc.Start)
			body = appendFloat(body, pc.End)
			for _, x := range pc.A {
				body = appendFloat(body, x)
			}
			for _, x := range pc.B {
				body = appendFloat(body, x)
			}
		}
	}
	nBounds := 0
	for _, o := range oids {
		if _, ok := s.bounds[o]; ok {
			nBounds++
		}
	}
	body = binary.AppendUvarint(body, uint64(nBounds))
	for _, o := range oids {
		if v, ok := s.bounds[o]; ok {
			body = binary.AppendUvarint(body, uint64(o))
			body = appendFloat(body, v)
		}
	}
	if _, err := w.Write([]byte{snapMagic[0], snapMagic[1], snapMagic[2], snapMagic[3], snapVersion}); err != nil {
		return err
	}
	if _, err := w.Write(body); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(body, crcTable)))
	return err
}

// LoadBinary reads a snapshot produced by SaveBinary and reconstructs
// the database. The header is checked by CheckSnapshotHeader, the body
// CRC is verified before any of the body is parsed, and trajectories
// are validated for continuity on the way in.
func LoadBinary(r io.Reader) (*DB, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("mod: read binary snapshot: %w", err)
	}
	if len(raw) < BinaryJournalHeaderLen+4 {
		return nil, fmt.Errorf("mod: binary snapshot truncated (%d bytes)", len(raw))
	}
	if err := CheckSnapshotHeader(raw); err != nil {
		return nil, err
	}
	body := raw[BinaryJournalHeaderLen : len(raw)-4]
	wantSum := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.Checksum(body, crcTable) != wantSum {
		return nil, errors.New("mod: binary snapshot checksum mismatch")
	}
	c := binCursor{p: body}
	dimU, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("mod: binary snapshot dim: %w", err)
	}
	if dimU == 0 || dimU > maxBinaryRecord {
		return nil, fmt.Errorf("mod: binary snapshot has dimension %d", dimU)
	}
	dim := int(dimU)
	tau, err := c.float()
	if err != nil {
		return nil, fmt.Errorf("mod: binary snapshot tau: %w", err)
	}
	if math.IsNaN(tau) || math.IsInf(tau, 1) {
		return nil, fmt.Errorf("mod: binary snapshot tau %g", tau)
	}
	db := NewDB(dim, math.Inf(-1))
	nObjs, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("mod: binary snapshot object count: %w", err)
	}
	for i := uint64(0); i < nObjs; i++ {
		oid, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("mod: binary snapshot object %d: %w", i, err)
		}
		nPieces, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("mod: object %d piece count: %w", oid, err)
		}
		// Each piece is (2 + 2*dim) floats; reject counts the remaining
		// bytes cannot hold before allocating.
		pieceBytes := uint64(2+2*dim) * 8
		if nPieces > uint64(len(c.p))/pieceBytes {
			return nil, fmt.Errorf("mod: object %d: %w", oid, errTruncated)
		}
		pieces := make([]trajectory.Piece, nPieces)
		for j := range pieces {
			pc := &pieces[j]
			pc.Start, _ = c.float()
			pc.End, _ = c.float()
			pc.A = make(geom.Vec, dim)
			pc.B = make(geom.Vec, dim)
			for d := 0; d < dim; d++ {
				pc.A[d], _ = c.float()
			}
			for d := 0; d < dim; d++ {
				pc.B[d], _ = c.float()
			}
			if vecHasNaN(pc.A) || vecHasNaN(pc.B) {
				return nil, fmt.Errorf("mod: object %d piece %d has NaN coefficients", oid, j)
			}
		}
		tr, err := trajectory.FromPieces(pieces...)
		if err != nil {
			return nil, fmt.Errorf("mod: object %d: %w", oid, err)
		}
		if err := db.Load(OID(oid), tr); err != nil {
			return nil, err
		}
	}
	nBounds, err := c.uvarint()
	if err != nil {
		return nil, fmt.Errorf("mod: binary snapshot bound count: %w", err)
	}
	if nBounds > uint64(len(c.p))/9 { // each bound is ≥ 1 varint byte + 8 float bytes
		return nil, fmt.Errorf("mod: binary snapshot bounds: %w", errTruncated)
	}
	for i := uint64(0); i < nBounds; i++ {
		oid, err := c.uvarint()
		if err != nil {
			return nil, fmt.Errorf("mod: binary snapshot bound %d: %w", i, err)
		}
		v, err := c.float()
		if err != nil {
			return nil, fmt.Errorf("mod: binary snapshot bound %d: %w", i, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("mod: binary snapshot bound for object %d: bad vmax %g", oid, v)
		}
		if !db.Contains(OID(oid)) {
			return nil, fmt.Errorf("mod: binary snapshot bound for unknown object %d", oid)
		}
		db.bounds[OID(oid)] = v
	}
	if len(c.p) != 0 {
		return nil, fmt.Errorf("mod: binary snapshot has %d trailing bytes", len(c.p))
	}
	db.mu.Lock()
	db.tau = tau
	db.epoch.Add(1)
	db.mu.Unlock()
	return db, nil
}

// vecHasNaN reports whether any component is NaN. Infinities are left
// alone — they compare equal to themselves, so state containing them
// still round-trips and StateEqual-compares exactly.
func vecHasNaN(v geom.Vec) bool {
	for _, x := range v {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// EncodeUpdatesBinary writes a batch of updates in the binary wire
// layout (header plus framed records) — the request body format the
// batch-ingest endpoint accepts with Content-Type BinaryUpdatesContentType.
func EncodeUpdatesBinary(w io.Writer, us []Update) error {
	buf := []byte{wireMagic[0], wireMagic[1], wireMagic[2], wireMagic[3], binaryVersion}
	for _, u := range us {
		buf = AppendUpdateRecord(buf, u)
	}
	_, err := w.Write(buf)
	return err
}

// DecodeUpdatesBinary reads a binary update batch. Decoding is strict —
// this is a request body, not a crash artifact, so a torn or corrupt
// record is an error, never tolerated.
func DecodeUpdatesBinary(r io.Reader) ([]Update, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, BinaryJournalHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("mod: binary batch header: %w", err)
	}
	if [4]byte(hdr[:4]) != wireMagic {
		return nil, fmt.Errorf("mod: not a binary update batch (magic %q)", hdr[:4])
	}
	if hdr[4] != binaryVersion {
		return nil, fmt.Errorf("mod: binary batch version %d, this build reads %d", hdr[4], binaryVersion)
	}
	var us []Update
	for {
		ln, _, err := readUvarint(br)
		if err == io.EOF {
			return us, nil
		}
		if err != nil {
			return nil, fmt.Errorf("mod: binary batch entry %d: %w", len(us), err)
		}
		if ln > maxBinaryRecord {
			return nil, fmt.Errorf("mod: binary batch entry %d: length %d exceeds limit", len(us), ln)
		}
		frame := make([]byte, int(ln)+4)
		if _, err := io.ReadFull(br, frame); err != nil {
			return nil, fmt.Errorf("mod: binary batch entry %d: %w", len(us), err)
		}
		payload := frame[:ln]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(frame[ln:]) {
			return nil, fmt.Errorf("mod: binary batch entry %d: checksum mismatch", len(us))
		}
		u, err := decodeUpdatePayload(payload)
		if err != nil {
			return nil, fmt.Errorf("mod: binary batch entry %d: %w", len(us), err)
		}
		us = append(us, u)
	}
}
