package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Binary codec: what every session writes once its hello has settled it.
//
// A binary frame is
//
//	magic (0xBC) | version (0x01) | payload length (uint32 LE) | payload | CRC32-C of payload (uint32 LE)
//
// and the payload is one envelope: a kind byte followed by tagged fields
// in protobuf-style key/value encoding (key = tag<<3 | wiretype; wiretype
// 0 = varint, 1 = fixed64, 2 = length-delimited). Only non-zero fields
// are encoded, mirroring the JSON codec's omitempty semantics, and
// unknown tags are skipped by wiretype — both codecs tolerate fields
// they do not know, so the protocol stays evolvable on either path.
//
// The read side never needs to be told which codec a peer writes: the
// first byte of every frame disambiguates ('{' opens a JSON line, 0xBC a
// binary frame), so negotiation only ever governs what a writer emits.
// That is what makes the Hello handshake safe against every old/new peer
// combination — the worst case is staying on JSON.
//
// Corruption behaviour: the checksum covers the payload, so a flipped
// byte inside a frame whose header still parses is detected and reported
// as a recoverable DecodeError with the stream still synchronised — the
// caller counts it and keeps reading. A damaged header (bad version,
// absurd length) means framing itself is lost and the error is fatal.

// Codec names, advertised in an agent hello's Codecs list and confirmed
// in the manager's hello reply Codec field.
const (
	CodecJSON   = "json"
	CodecBinary = "binary"
)

const (
	frameMagic   = 0xBC
	frameVersion = 1
	// frameHeaderLen is magic + version + length.
	frameHeaderLen = 6
	// maxFramePayload bounds a frame's payload so a corrupted length
	// field cannot make the reader allocate or block unboundedly.
	maxFramePayload = 16 << 20
	// maxBatchDepth bounds nested-batch recursion in both directions.
	maxBatchDepth = 8
	// maxDecodeFails is how many consecutive recoverable decode errors a
	// connection absorbs before the next one is escalated to fatal: a
	// stream that lost framing (e.g. a truncated binary frame swallowing
	// the start of the next) can otherwise garble forever without ever
	// surfacing an I/O error.
	maxDecodeFails = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Binary payload field tags. Wiretypes: varint fields use zigzag for the
// signed ints, plain varints for the unsigned ones; CPUUtil is fixed64;
// everything else is length-delimited.
const (
	tagNode       = 1  // zigzag varint
	tagMaxLevel   = 2  // zigzag varint
	tagSeq        = 3  // varint
	tagLevel      = 4  // zigzag varint
	tagCPUUtil    = 5  // fixed64 (IEEE 754 bits)
	tagMemUsed    = 6  // varint
	tagMemTotal   = 7  // varint
	tagNICBytes   = 8  // varint
	tagIntervalMS = 9  // zigzag varint
	tagJob        = 10 // zigzag varint
	tagEpoch      = 11 // varint
	tagEntry      = 12 // bytes (compact JSON, schema owned by internal/replica)
	tagStats      = 13 // bytes (JSON-encoded StatusReply; not a hot-path frame)
	tagBatch      = 14 // bytes, repeated (one nested payload per occurrence)
	tagCodec      = 15 // bytes (string)
	tagCodecs     = 16 // bytes, repeated (string)
	tagPowerW     = 17 // fixed64 (IEEE 754 bits)
	tagDemandW    = 18 // fixed64 (IEEE 754 bits)
	tagBudgetW    = 19 // fixed64 (IEEE 754 bits)
	tagPHW        = 20 // fixed64 (IEEE 754 bits)
	tagAgents     = 21 // zigzag varint
	tagHealthy    = 22 // zigzag varint
)

const (
	wireVarint  = 0
	wireFixed64 = 1
	wireBytes   = 2
)

// DecodeError reports a frame that failed to decode. When Recoverable,
// the stream is still synchronised past the bad frame — the caller may
// count the error and keep reading (the managerd/agentd readers do,
// surfacing the count as the decode_errors instrument). A fatal decode
// error means framing itself is lost and the connection must be dropped.
type DecodeError struct {
	Codec string // "json" or "binary"
	Fatal bool
	Err   error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: %s decode: %v", e.Codec, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// Recoverable reports whether the caller may keep reading the stream.
func (e *DecodeError) Recoverable() bool { return !e.Fatal }

func kindByte(kind string) (byte, bool) {
	switch kind {
	case KindHello:
		return 1, true
	case KindSample:
		return 2, true
	case KindCommand:
		return 3, true
	case KindAck:
		return 4, true
	case KindPing:
		return 5, true
	case KindStatus:
		return 6, true
	case KindBatch:
		return 7, true
	case KindJournalAppend:
		return 8, true
	case KindJournalAck:
		return 9, true
	case KindCabReport:
		return 10, true
	case KindCabBudget:
		return 11, true
	}
	return 0, false
}

func kindName(b byte) (string, bool) {
	switch b {
	case 1:
		return KindHello, true
	case 2:
		return KindSample, true
	case 3:
		return KindCommand, true
	case 4:
		return KindAck, true
	case 5:
		return KindPing, true
	case 6:
		return KindStatus, true
	case 7:
		return KindBatch, true
	case 8:
		return KindJournalAppend, true
	case 9:
		return KindJournalAck, true
	case 10:
		return KindCabReport, true
	case 11:
		return KindCabBudget, true
	}
	return "", false
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func appendKey(buf []byte, tag, wt uint64) []byte {
	return binary.AppendUvarint(buf, tag<<3|wt)
}

func appendVarintField(buf []byte, tag, v uint64) []byte {
	buf = appendKey(buf, tag, wireVarint)
	return binary.AppendUvarint(buf, v)
}

func appendBytesField(buf []byte, tag uint64, b []byte) []byte {
	buf = appendKey(buf, tag, wireBytes)
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// appendPayload encodes e (kind byte + fields) onto buf. It refuses kinds
// outside the table and payloads the JSON codec would also refuse (an
// Entry that is not valid JSON).
func appendPayload(buf []byte, e *Envelope, depth int) ([]byte, error) {
	if depth > maxBatchDepth {
		return buf, errors.New("wire: batch nesting too deep to encode")
	}
	kb, ok := kindByte(e.Type)
	if !ok {
		return buf, fmt.Errorf("wire: kind %q has no binary encoding", e.Type)
	}
	buf = append(buf, kb)
	if e.Node != 0 {
		buf = appendVarintField(buf, tagNode, zigzag(int64(e.Node)))
	}
	if e.MaxLevel != 0 {
		buf = appendVarintField(buf, tagMaxLevel, zigzag(int64(e.MaxLevel)))
	}
	if e.Seq != 0 {
		buf = appendVarintField(buf, tagSeq, e.Seq)
	}
	if e.Level != 0 {
		buf = appendVarintField(buf, tagLevel, zigzag(int64(e.Level)))
	}
	if e.CPUUtil != 0 {
		buf = appendKey(buf, tagCPUUtil, wireFixed64)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.CPUUtil))
	}
	if e.MemUsed != 0 {
		buf = appendVarintField(buf, tagMemUsed, e.MemUsed)
	}
	if e.MemTotal != 0 {
		buf = appendVarintField(buf, tagMemTotal, e.MemTotal)
	}
	if e.NICBytes != 0 {
		buf = appendVarintField(buf, tagNICBytes, e.NICBytes)
	}
	if e.IntervalMS != 0 {
		buf = appendVarintField(buf, tagIntervalMS, zigzag(e.IntervalMS))
	}
	if e.Job != 0 {
		buf = appendVarintField(buf, tagJob, zigzag(int64(e.Job)))
	}
	if e.Epoch != 0 {
		buf = appendVarintField(buf, tagEpoch, e.Epoch)
	}
	if len(e.Entry) > 0 {
		// Compacted, because the JSON codec compacts RawMessage on
		// marshal — the two codecs must decode to identical envelopes.
		// Invalid JSON errors out here exactly as json.Marshal would.
		var cb bytes.Buffer
		if err := json.Compact(&cb, e.Entry); err != nil {
			return buf, fmt.Errorf("wire: marshal entry: %w", err)
		}
		buf = appendBytesField(buf, tagEntry, cb.Bytes())
	}
	if e.Stats != nil {
		sb, err := json.Marshal(e.Stats)
		if err != nil {
			return buf, fmt.Errorf("wire: marshal stats: %w", err)
		}
		buf = appendBytesField(buf, tagStats, sb)
	}
	for i := range e.Batch {
		// Nested envelopes need a length prefix whose width is unknown
		// until the child is encoded: encode the child in place, then
		// shift it right by the final varint's width (copy is memmove).
		buf = appendKey(buf, tagBatch, wireBytes)
		start := len(buf)
		var err error
		buf, err = appendPayload(buf, &e.Batch[i], depth+1)
		if err != nil {
			return buf, err
		}
		n := len(buf) - start
		var lb [binary.MaxVarintLen64]byte
		ln := binary.PutUvarint(lb[:], uint64(n))
		buf = append(buf, lb[:ln]...)
		copy(buf[start+ln:], buf[start:start+n])
		copy(buf[start:], lb[:ln])
	}
	if e.Codec != "" {
		buf = appendBytesField(buf, tagCodec, []byte(e.Codec))
	}
	for _, c := range e.Codecs {
		buf = appendBytesField(buf, tagCodecs, []byte(c))
	}
	if e.PowerW != 0 {
		buf = appendKey(buf, tagPowerW, wireFixed64)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.PowerW))
	}
	if e.DemandW != 0 {
		buf = appendKey(buf, tagDemandW, wireFixed64)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.DemandW))
	}
	if e.BudgetW != 0 {
		buf = appendKey(buf, tagBudgetW, wireFixed64)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.BudgetW))
	}
	if e.PHW != 0 {
		buf = appendKey(buf, tagPHW, wireFixed64)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.PHW))
	}
	if e.Agents != 0 {
		buf = appendVarintField(buf, tagAgents, zigzag(int64(e.Agents)))
	}
	if e.Healthy != 0 {
		buf = appendVarintField(buf, tagHealthy, zigzag(int64(e.Healthy)))
	}
	return buf, nil
}

// AppendFrame encodes e as one complete binary frame (header, payload,
// checksum) onto buf.
func AppendFrame(buf []byte, e *Envelope) ([]byte, error) {
	base := len(buf)
	buf = append(buf, frameMagic, frameVersion, 0, 0, 0, 0)
	payload, err := appendPayload(buf, e, 0)
	if err != nil {
		return buf[:base], err
	}
	buf = payload
	n := len(buf) - base - frameHeaderLen
	if n > maxFramePayload {
		return buf[:base], fmt.Errorf("wire: frame payload %d exceeds %d-byte cap", n, maxFramePayload)
	}
	binary.LittleEndian.PutUint32(buf[base+2:base+6], uint32(n))
	sum := crc32.Checksum(buf[base+frameHeaderLen:], castagnoli)
	return binary.LittleEndian.AppendUint32(buf, sum), nil
}

// DecodeFrame decodes one complete binary frame (as produced by
// AppendFrame) into e. It mirrors the Conn read path for callers holding
// a frame as a byte slice (fuzzers, tests).
func DecodeFrame(frame []byte, e *Envelope) error {
	if len(frame) < frameHeaderLen+1+4 {
		return &DecodeError{Codec: CodecBinary, Fatal: true, Err: errors.New("frame too short")}
	}
	if frame[0] != frameMagic || frame[1] != frameVersion {
		return &DecodeError{Codec: CodecBinary, Fatal: true, Err: errors.New("bad frame header")}
	}
	n := binary.LittleEndian.Uint32(frame[2:6])
	if n > maxFramePayload || int(n) != len(frame)-frameHeaderLen-4 {
		return &DecodeError{Codec: CodecBinary, Fatal: true, Err: errors.New("bad frame length")}
	}
	payload := frame[frameHeaderLen : frameHeaderLen+int(n)]
	sum := binary.LittleEndian.Uint32(frame[len(frame)-4:])
	if crc32.Checksum(payload, castagnoli) != sum {
		return &DecodeError{Codec: CodecBinary, Err: errors.New("frame checksum mismatch")}
	}
	*e = Envelope{}
	if err := decodePayload(payload, e, 0); err != nil {
		return &DecodeError{Codec: CodecBinary, Err: err}
	}
	return nil
}

// decodePayload decodes one payload (kind byte + fields) into e, which
// the caller has zeroed. Unknown tags are skipped by wiretype; unknown
// kind bytes and malformed field encodings are errors (the enclosing
// frame passed its checksum, so these mean a protocol bug or a version
// skew beyond field-level evolution, not line noise).
func decodePayload(p []byte, e *Envelope, depth int) error {
	if depth > maxBatchDepth {
		return errors.New("batch nesting too deep")
	}
	if len(p) == 0 {
		return errors.New("empty payload")
	}
	kind, ok := kindName(p[0])
	if !ok {
		return fmt.Errorf("unknown kind byte %d", p[0])
	}
	e.Type = kind
	p = p[1:]
	for len(p) > 0 {
		key, n := binary.Uvarint(p)
		if n <= 0 {
			return errors.New("bad field key")
		}
		p = p[n:]
		tag, wt := key>>3, key&7
		switch wt {
		case wireVarint:
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return errors.New("bad varint")
			}
			p = p[n:]
			switch tag {
			case tagNode:
				e.Node = int(unzigzag(v))
			case tagMaxLevel:
				e.MaxLevel = int(unzigzag(v))
			case tagSeq:
				e.Seq = v
			case tagLevel:
				e.Level = int(unzigzag(v))
			case tagMemUsed:
				e.MemUsed = v
			case tagMemTotal:
				e.MemTotal = v
			case tagNICBytes:
				e.NICBytes = v
			case tagIntervalMS:
				e.IntervalMS = unzigzag(v)
			case tagJob:
				e.Job = int(unzigzag(v))
			case tagEpoch:
				e.Epoch = v
			case tagAgents:
				e.Agents = int(unzigzag(v))
			case tagHealthy:
				e.Healthy = int(unzigzag(v))
			}
		case wireFixed64:
			if len(p) < 8 {
				return errors.New("short fixed64")
			}
			v := binary.LittleEndian.Uint64(p)
			p = p[8:]
			switch tag {
			case tagCPUUtil:
				e.CPUUtil = math.Float64frombits(v)
			case tagPowerW:
				e.PowerW = math.Float64frombits(v)
			case tagDemandW:
				e.DemandW = math.Float64frombits(v)
			case tagBudgetW:
				e.BudgetW = math.Float64frombits(v)
			case tagPHW:
				e.PHW = math.Float64frombits(v)
			}
		case wireBytes:
			l, n := binary.Uvarint(p)
			if n <= 0 || l > uint64(len(p)-n) {
				return errors.New("bad length-delimited field")
			}
			b := p[n : n+int(l)]
			p = p[n+int(l):]
			switch tag {
			case tagEntry:
				e.Entry = append(json.RawMessage(nil), b...)
			case tagStats:
				st := new(StatusReply)
				if err := json.Unmarshal(b, st); err != nil {
					return fmt.Errorf("stats: %w", err)
				}
				e.Stats = st
			case tagBatch:
				e.Batch = append(e.Batch, Envelope{})
				if err := decodePayload(b, &e.Batch[len(e.Batch)-1], depth+1); err != nil {
					return err
				}
			case tagCodec:
				e.Codec = string(b)
			case tagCodecs:
				e.Codecs = append(e.Codecs, string(b))
			}
		default:
			return fmt.Errorf("bad wire type %d", wt)
		}
	}
	return nil
}

// recvBinary reads one binary frame body (the magic byte is already
// consumed) into e, reusing the connection's read buffer.
func (c *Conn) recvBinary(e *Envelope) error {
	hdr := &c.hdr
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return err
	}
	if hdr[0] != frameVersion {
		return &DecodeError{Codec: CodecBinary, Fatal: true, Err: fmt.Errorf("unsupported frame version %d", hdr[0])}
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > maxFramePayload {
		return &DecodeError{Codec: CodecBinary, Fatal: true, Err: fmt.Errorf("frame length %d exceeds %d-byte cap", n, maxFramePayload)}
	}
	need := int(n) + 4
	if cap(c.readBuf) < need {
		c.readBuf = make([]byte, need)
	}
	buf := c.readBuf[:need]
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return err
	}
	payload := buf[:n]
	sum := binary.LittleEndian.Uint32(buf[n:])
	if crc32.Checksum(payload, castagnoli) != sum {
		return &DecodeError{Codec: CodecBinary, Err: errors.New("frame checksum mismatch")}
	}
	if err := decodePayload(payload, e, 0); err != nil {
		return &DecodeError{Codec: CodecBinary, Err: err}
	}
	return nil
}
