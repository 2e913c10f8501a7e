package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Journal record codec. Every control-plane mutation travels as one
// CRC-framed, length-prefixed, little-endian record:
//
//	magic "AJL1" | seq u64 | op u8 | payload len u32 | payload | crc32 u32
//
// The CRC (IEEE, over seq..payload) makes a bit flip anywhere in the
// record detectable; the magic and length prefix make a torn tail
// detectable (a crash mid-append leaves a record that fails to frame).
// Decoding never panics on arbitrary bytes: structural damage returns
// ErrRecordCorrupt, and a record that parses but does not re-encode to
// the same bytes (a value smuggled in via non-canonical encoding) is
// rejected too — FuzzJournalRecord pins round-trip-or-reject.

// Op is a registry mutation kind.
type Op uint8

const (
	// OpAddGrammar loads a grammar into the registry (Name).
	OpAddGrammar Op = 1
	// OpRemoveGrammar unloads a grammar (Name).
	OpRemoveGrammar Op = 2
	// OpSwapGrammar rebuilds a loaded grammar's entry in place (Name) —
	// membership is unchanged, the entry generation advances.
	OpSwapGrammar Op = 3
	// OpVerifyMode records the silent-corruption detection mode the
	// registry serves under (Name holds the mode string, off|scrub|dmr|tmr).
	OpVerifyMode Op = 4
	// OpPartition records the fabric partition derived from the current
	// membership: total banks plus every tenant's contiguous range. It is
	// written after every membership change so replay can cross-check the
	// recomputed partition.
	OpPartition Op = 5
	// OpUpload records a tenant-uploaded machine admission: the source
	// text, its format, and the admission limits it was checked under, so
	// replay re-runs the identical admission and rebuilds the identical
	// machine.
	OpUpload Op = 6
	// OpWeight records an operator override of a grammar's fair-share
	// weight in the overload scheduler (Name, Weight). Weight 0 is
	// invalid; replay applies the last override per grammar.
	OpWeight Op = 7
)

func (o Op) String() string {
	switch o {
	case OpAddGrammar:
		return "add"
	case OpRemoveGrammar:
		return "remove"
	case OpSwapGrammar:
		return "swap"
	case OpVerifyMode:
		return "verify-mode"
	case OpPartition:
		return "partition"
	case OpUpload:
		return "upload"
	case OpWeight:
		return "weight"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// TenantRange is one grammar's contiguous bank share in an OpPartition
// record.
type TenantRange struct {
	Name   string
	Lo, Hi int
}

// Record is one journaled registry mutation. Seq is assigned by the
// journal (strictly increasing from 1); replay refuses gaps and
// duplicates, so a re-appended or re-ordered record reads as corruption
// rather than silently double-applying.
type Record struct {
	Seq     uint64
	Op      Op
	Name    string        // grammar name, or the mode string for OpVerifyMode
	Banks   int           // OpPartition: fabric total
	Tenants []TenantRange // OpPartition
	// OpUpload fields: the source text as uploaded, its declared format,
	// and the admission limits in force when it was admitted. Replay
	// re-admits from exactly these inputs.
	Format     string
	Source     []byte
	MaxStates  int
	MaxDepth   int
	MaxTableKB int
	// OpWeight: the overridden fair-share weight (integer ≥ 1).
	Weight int
}

// ErrRecordCorrupt reports a record that failed to frame, failed its
// CRC, or decoded non-canonically.
var ErrRecordCorrupt = errors.New("store: corrupt journal record")

// ErrUnknownOp reports a structurally intact record (magic, length, and
// CRC all verify) whose op code this build does not understand — i.e. a
// journal written by a newer version of the software. Replay must stop
// and surface this rather than truncate or skip: the bytes are not
// damage, and dropping them would silently fork registry state.
var ErrUnknownOp = errors.New("store: journal record op not supported by this version (journal written by a newer build?)")

const (
	recordMagic = "AJL1"
	// maxPayload bounds one record payload so a garbage length field
	// cannot drive a huge allocation. Partition records grow with tenant
	// count; 1 MiB is ~10k tenants of headroom.
	maxPayload = 1 << 20
	// maxName bounds one encoded string.
	maxName = 1 << 10
	// maxSource bounds one uploaded machine definition. Admission enforces
	// the same ceiling, so a record that exceeds it never existed.
	maxSource = 256 << 10
)

var crcTable = crc32.MakeTable(crc32.IEEE)

func appendString(out []byte, s string) []byte {
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s)))
	return append(out, s...)
}

func takeString(data []byte) (string, []byte, error) {
	if len(data) < 2 {
		return "", nil, fmt.Errorf("%w: truncated string length", ErrRecordCorrupt)
	}
	n := int(binary.LittleEndian.Uint16(data))
	data = data[2:]
	if n > maxName || n > len(data) {
		return "", nil, fmt.Errorf("%w: string length %d exceeds payload", ErrRecordCorrupt, n)
	}
	return string(data[:n]), data[n:], nil
}

// payload encodes the op-specific fields.
func (r *Record) payload() ([]byte, error) {
	switch r.Op {
	case OpAddGrammar, OpRemoveGrammar, OpSwapGrammar, OpVerifyMode:
		if len(r.Name) == 0 || len(r.Name) > maxName {
			return nil, fmt.Errorf("store: record name length %d out of range", len(r.Name))
		}
		return appendString(nil, r.Name), nil
	case OpPartition:
		out := binary.LittleEndian.AppendUint32(nil, uint32(r.Banks))
		out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Tenants)))
		for _, t := range r.Tenants {
			if len(t.Name) == 0 || len(t.Name) > maxName {
				return nil, fmt.Errorf("store: tenant name length %d out of range", len(t.Name))
			}
			out = appendString(out, t.Name)
			out = binary.LittleEndian.AppendUint32(out, uint32(t.Lo))
			out = binary.LittleEndian.AppendUint32(out, uint32(t.Hi))
		}
		return out, nil
	case OpUpload:
		if len(r.Name) == 0 || len(r.Name) > maxName {
			return nil, fmt.Errorf("store: record name length %d out of range", len(r.Name))
		}
		if len(r.Format) == 0 || len(r.Format) > maxName {
			return nil, fmt.Errorf("store: record format length %d out of range", len(r.Format))
		}
		if len(r.Source) == 0 || len(r.Source) > maxSource {
			return nil, fmt.Errorf("store: record source length %d out of range", len(r.Source))
		}
		out := appendString(nil, r.Name)
		out = appendString(out, r.Format)
		out = binary.LittleEndian.AppendUint32(out, uint32(r.MaxStates))
		out = binary.LittleEndian.AppendUint32(out, uint32(r.MaxDepth))
		out = binary.LittleEndian.AppendUint32(out, uint32(r.MaxTableKB))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(r.Source)))
		return append(out, r.Source...), nil
	case OpWeight:
		if len(r.Name) == 0 || len(r.Name) > maxName {
			return nil, fmt.Errorf("store: record name length %d out of range", len(r.Name))
		}
		if r.Weight < 1 || uint64(r.Weight) > uint64(^uint32(0)) {
			return nil, fmt.Errorf("store: weight %d out of range", r.Weight)
		}
		out := appendString(nil, r.Name)
		return binary.LittleEndian.AppendUint32(out, uint32(r.Weight)), nil
	default:
		return nil, fmt.Errorf("store: unknown op %d", r.Op)
	}
}

// AppendRecord encodes r onto out. It fails only on a malformed record
// (unknown op, oversized name), never on size grounds a caller could
// hit with real registry state.
func AppendRecord(out []byte, r Record) ([]byte, error) {
	p, err := r.payload()
	if err != nil {
		return nil, err
	}
	start := len(out)
	out = append(out, recordMagic...)
	out = binary.LittleEndian.AppendUint64(out, r.Seq)
	out = append(out, byte(r.Op))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p)))
	out = append(out, p...)
	crc := crc32.Checksum(out[start+4:], crcTable)
	return binary.LittleEndian.AppendUint32(out, crc), nil
}

// DecodeRecord decodes the first record in data, returning it and the
// number of bytes consumed. Any structural damage — short buffer, bad
// magic, oversized length, CRC mismatch, trailing payload bytes, or a
// non-canonical encoding — returns ErrRecordCorrupt. A record whose
// frame verifies but whose op code is unknown returns ErrUnknownOp
// (version skew, not damage). It never panics.
func DecodeRecord(data []byte) (Record, int, error) {
	const header = 4 + 8 + 1 + 4 // magic + seq + op + payload len
	if len(data) < header {
		return Record{}, 0, fmt.Errorf("%w: truncated header", ErrRecordCorrupt)
	}
	if string(data[:4]) != recordMagic {
		return Record{}, 0, fmt.Errorf("%w: bad magic", ErrRecordCorrupt)
	}
	seq := binary.LittleEndian.Uint64(data[4:])
	op := Op(data[12])
	plen := int(binary.LittleEndian.Uint32(data[13:]))
	if plen > maxPayload {
		return Record{}, 0, fmt.Errorf("%w: payload length %d exceeds limit", ErrRecordCorrupt, plen)
	}
	total := header + plen + 4
	if len(data) < total {
		return Record{}, 0, fmt.Errorf("%w: truncated payload", ErrRecordCorrupt)
	}
	want := binary.LittleEndian.Uint32(data[header+plen:])
	if crc32.Checksum(data[4:header+plen], crcTable) != want {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", ErrRecordCorrupt)
	}
	r := Record{Seq: seq, Op: op}
	p := data[header : header+plen]
	var err error
	switch op {
	case OpAddGrammar, OpRemoveGrammar, OpSwapGrammar, OpVerifyMode:
		r.Name, p, err = takeString(p)
		if err != nil {
			return Record{}, 0, err
		}
	case OpPartition:
		if len(p) < 6 {
			return Record{}, 0, fmt.Errorf("%w: truncated partition", ErrRecordCorrupt)
		}
		r.Banks = int(binary.LittleEndian.Uint32(p))
		n := int(binary.LittleEndian.Uint16(p[4:]))
		p = p[6:]
		for i := 0; i < n; i++ {
			var t TenantRange
			t.Name, p, err = takeString(p)
			if err != nil {
				return Record{}, 0, err
			}
			if len(p) < 8 {
				return Record{}, 0, fmt.Errorf("%w: truncated tenant range", ErrRecordCorrupt)
			}
			t.Lo = int(binary.LittleEndian.Uint32(p))
			t.Hi = int(binary.LittleEndian.Uint32(p[4:]))
			p = p[8:]
			r.Tenants = append(r.Tenants, t)
		}
	case OpUpload:
		r.Name, p, err = takeString(p)
		if err != nil {
			return Record{}, 0, err
		}
		r.Format, p, err = takeString(p)
		if err != nil {
			return Record{}, 0, err
		}
		if len(p) < 16 {
			return Record{}, 0, fmt.Errorf("%w: truncated upload limits", ErrRecordCorrupt)
		}
		r.MaxStates = int(binary.LittleEndian.Uint32(p))
		r.MaxDepth = int(binary.LittleEndian.Uint32(p[4:]))
		r.MaxTableKB = int(binary.LittleEndian.Uint32(p[8:]))
		slen := int(binary.LittleEndian.Uint32(p[12:]))
		p = p[16:]
		if slen > maxSource || slen > len(p) {
			return Record{}, 0, fmt.Errorf("%w: source length %d exceeds payload", ErrRecordCorrupt, slen)
		}
		r.Source = append([]byte(nil), p[:slen]...)
		p = p[slen:]
	case OpWeight:
		r.Name, p, err = takeString(p)
		if err != nil {
			return Record{}, 0, err
		}
		if len(p) < 4 {
			return Record{}, 0, fmt.Errorf("%w: truncated weight", ErrRecordCorrupt)
		}
		r.Weight = int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if r.Weight < 1 {
			return Record{}, 0, fmt.Errorf("%w: zero weight", ErrRecordCorrupt)
		}
	default:
		// The frame is intact (CRC verified above) but the op is from a
		// newer record vocabulary. This is a version skew, not corruption.
		return Record{}, 0, fmt.Errorf("%w: op %d at seq %d", ErrUnknownOp, op, seq)
	}
	if len(p) != 0 {
		return Record{}, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrRecordCorrupt, len(p))
	}
	// Canonicality: a record whose decoded fields re-encode differently
	// (e.g. a length field inflated past the data it frames) was damaged
	// in bits the field types would silently normalize — reject instead
	// of letting corruption alias a valid mutation.
	reenc, err := AppendRecord(nil, r)
	if err != nil || len(reenc) != total || string(reenc) != string(data[:total]) {
		return Record{}, 0, fmt.Errorf("%w: non-canonical encoding", ErrRecordCorrupt)
	}
	return r, total, nil
}
