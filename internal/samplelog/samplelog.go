// Package samplelog is the durable sample log behind the serving tier: a
// segmented, checksummed, append-only binary record of every sample the
// fleet scored — (stream id, app, feature vector, verdict, score, model
// version, nanos) — written off the serving hot path so recorded reality
// can be backtested against any registry version (smartctl backtest) or
// replayed as time-compressed fleet load (smartload -replay).
//
// Durability model: the log is written by one background goroutine fed
// through a bounded drop-oldest ring with a feature-buffer free list —
// the same backpressure machinery the session engine uses for ingress —
// so a slow or failing disk sheds log records (counted in
// samplelog_dropped_total) instead of ever stalling verdict emission.
// Records are framed with a per-record CRC32C so a crash that tears the
// tail of a segment truncates cleanly at the last valid checksum on
// reopen; segments carry a format-versioned header, rotate at a size
// bound and are pruned oldest-first under a retention cap.
//
// Layout (all integers big-endian, floats IEEE-754 bits):
//
//	segment  := header record*
//	header   := magic "2SLG" | uint16 format | uint16 reserved | uint64 createdNanos
//	record   := uint32 payloadLen | payload | uint32 crc32c(payload)
//	payload  := uint64 nanos | uint32 stream | uint16 appLen | app |
//	            uint32 modelVersion | uint8 flags | uint8 class |
//	            float64 score | uint16 numFeatures | float64*numFeatures
//
// Payloads are strictly sized — trailing bytes after the last field are
// a decode error — so the encoding is canonical (AppendRecord∘DecodeRecord
// is the identity, pinned by FuzzDecodeRecord). Decoders never panic and
// enforce resource bounds before allocation.
package samplelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"twosmart/internal/core"
)

// FormatVersion is the segment format generation, written into every
// segment header. Bump it on any incompatible layout change; readers
// refuse segments from a different generation with ErrFormat.
const FormatVersion = 1

// Codec resource bounds, enforced during decode before any allocation.
const (
	// MaxApp bounds the encoded app-name length of one record.
	MaxApp = 1 << 10
	// MaxFeatures bounds the feature vector width of one record
	// (mirrors wire.MaxFeatures — a record is a scored wire sample).
	MaxFeatures = 1 << 12
	// MaxPayload bounds one record's payload, derived from the field
	// bounds above.
	MaxPayload = 8 + 4 + 2 + MaxApp + 4 + 1 + 1 + 8 + 2 + 8*MaxFeatures
)

// headerLen is the fixed segment header size.
const headerLen = 4 + 2 + 2 + 8

// magic opens every segment file.
var magic = [4]byte{'2', 'S', 'L', 'G'}

// castagnoli is the CRC32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record flag bits.
const (
	// FlagMalware mirrors the recorded verdict's malware decision.
	FlagMalware uint8 = 1 << 0
	// FlagAlarm mirrors the stream monitor's smoothed alarm state at
	// record time.
	FlagAlarm uint8 = 1 << 1
	// FlagScored marks a record written by a scoring tier: its verdict,
	// score and class fields are meaningful. Gateway-tier records of
	// forwarded samples (taken at the forwarding edge, before any shard
	// scored them) leave it clear; backtests skip them, replay uses them
	// like any other.
	FlagScored uint8 = 1 << 2
	// FlagShortCircuit marks a record whose verdict came from the
	// stage-0 anomaly envelope (clear benign, full detector never ran).
	// Pre-cascade logs simply never set the bit.
	FlagShortCircuit uint8 = 1 << 3
)

// Record is one logged sample: what arrived, what the serving tier
// decided about it, and under which model generation.
type Record struct {
	// Nanos is the sample's ingress wall-clock (unix nanos) — replay
	// pacing reproduces the gaps between successive records.
	Nanos int64
	// Stream is the wire stream id the sample arrived on.
	Stream uint32
	// App is the stream's application name.
	App string
	// ModelVersion is the registry version that scored the sample (0
	// outside a registry). Gateway-tier records carry the model version
	// of the fleet's Welcome.
	ModelVersion uint32
	// Flags carries FlagMalware/FlagAlarm/FlagScored/FlagShortCircuit.
	Flags uint8
	// Class is the recorded stage-1 class (workload.Class), meaningful
	// only with FlagScored.
	Class uint8
	// Score is the recorded malware ranking score.
	Score float64
	// Features is the sample's feature vector.
	Features []float64
}

// Scored reports whether the record carries a meaningful verdict.
func (r Record) Scored() bool { return r.Flags&FlagScored != 0 }

// Malware reports the recorded malware decision.
func (r Record) Malware() bool { return r.Flags&FlagMalware != 0 }

// ShortCircuited reports whether the stage-0 envelope decided the record.
func (r Record) ShortCircuited() bool { return r.Flags&FlagShortCircuit != 0 }

// SetVerdict records a scoring tier's decision on r: it marks r scored,
// maps the verdict's malware decision, the stream monitor's alarm state
// and a stage-0 short-circuit to flags, and sets Class and Score.
func (r *Record) SetVerdict(v core.Verdict, score float64, alarm bool) {
	r.Flags = FlagScored
	if v.Malware {
		r.Flags |= FlagMalware
	}
	if alarm {
		r.Flags |= FlagAlarm
	}
	if v.Stage == core.StageShortCircuit {
		r.Flags |= FlagShortCircuit
	}
	r.Class = uint8(v.PredictedClass)
	r.Score = score
}

// Typed decode errors.
var (
	// ErrFormat is a segment header from a different format generation.
	ErrFormat = errors.New("samplelog: unsupported segment format")
	// ErrCorrupt is a record whose framing is intact but whose checksum
	// does not match — mid-file corruption, not a torn tail.
	ErrCorrupt = errors.New("samplelog: record checksum mismatch")
	// ErrTorn is a record cut short by the end of the segment — the torn
	// tail a crash leaves behind; everything before it is valid.
	ErrTorn = errors.New("samplelog: torn record at end of segment")
)

// payloadLen returns the encoded payload size of r.
func payloadLen(r Record) int {
	return 8 + 4 + 2 + len(r.App) + 4 + 1 + 1 + 8 + 2 + 8*len(r.Features)
}

// recordLen returns the full framed size of r (length prefix + payload +
// checksum).
func recordLen(r Record) int { return 4 + payloadLen(r) + 4 }

// AppendRecord appends r's framed encoding to buf and returns the
// extended slice. It validates the same bounds DecodeRecord enforces so
// everything written is readable.
func AppendRecord(buf []byte, r Record) ([]byte, error) {
	if len(r.App) > MaxApp {
		return buf, fmt.Errorf("samplelog: app name %d bytes, max %d", len(r.App), MaxApp)
	}
	if len(r.Features) > MaxFeatures {
		return buf, fmt.Errorf("samplelog: %d features, max %d", len(r.Features), MaxFeatures)
	}
	n := payloadLen(r)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	start := len(buf)
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Nanos))
	buf = binary.BigEndian.AppendUint32(buf, r.Stream)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.App)))
	buf = append(buf, r.App...)
	buf = binary.BigEndian.AppendUint32(buf, r.ModelVersion)
	buf = append(buf, r.Flags, r.Class)
	buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(r.Score))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Features)))
	for _, f := range r.Features {
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
	}
	sum := crc32.Checksum(buf[start:], castagnoli)
	return binary.BigEndian.AppendUint32(buf, sum), nil
}

// DecodeRecord decodes one framed record from the front of data,
// returning the record and how many bytes it consumed. A record cut
// short by the end of data returns ErrTorn; an intact frame whose
// checksum does not match returns ErrCorrupt. The returned record's App
// and Features are fresh allocations, safe to retain.
func DecodeRecord(data []byte) (Record, int, error) {
	if len(data) < 4 {
		return Record{}, 0, ErrTorn
	}
	n := int(binary.BigEndian.Uint32(data))
	if n > MaxPayload {
		return Record{}, 0, fmt.Errorf("samplelog: payload %d bytes, max %d", n, MaxPayload)
	}
	if len(data) < 4+n+4 {
		return Record{}, 0, ErrTorn
	}
	payload := data[4 : 4+n]
	want := binary.BigEndian.Uint32(data[4+n:])
	if crc32.Checksum(payload, castagnoli) != want {
		return Record{}, 0, ErrCorrupt
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return r, 4 + n + 4, nil
}

// decodePayload decodes a checksum-verified payload. Strictly sized:
// trailing bytes are an error, so the encoding is canonical.
func decodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 8+4+2 {
		return r, errors.New("samplelog: payload too short")
	}
	r.Nanos = int64(binary.BigEndian.Uint64(p))
	r.Stream = binary.BigEndian.Uint32(p[8:])
	appLen := int(binary.BigEndian.Uint16(p[12:]))
	if appLen > MaxApp {
		return r, fmt.Errorf("samplelog: app name %d bytes, max %d", appLen, MaxApp)
	}
	p = p[14:]
	if len(p) < appLen+4+1+1+8+2 {
		return r, errors.New("samplelog: payload too short")
	}
	r.App = string(p[:appLen])
	p = p[appLen:]
	r.ModelVersion = binary.BigEndian.Uint32(p)
	r.Flags = p[4]
	r.Class = p[5]
	r.Score = math.Float64frombits(binary.BigEndian.Uint64(p[6:]))
	nf := int(binary.BigEndian.Uint16(p[14:]))
	if nf > MaxFeatures {
		return r, fmt.Errorf("samplelog: %d features, max %d", nf, MaxFeatures)
	}
	p = p[16:]
	if len(p) != 8*nf {
		return r, fmt.Errorf("samplelog: payload carries %d feature bytes, want %d", len(p), 8*nf)
	}
	r.Features = make([]float64, nf)
	for i := range r.Features {
		r.Features[i] = math.Float64frombits(binary.BigEndian.Uint64(p[8*i:]))
	}
	return r, nil
}

// AppendHeader appends a segment header stamped with createdNanos.
func AppendHeader(buf []byte, createdNanos int64) []byte {
	buf = append(buf, magic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, FormatVersion)
	buf = binary.BigEndian.AppendUint16(buf, 0) // reserved
	return binary.BigEndian.AppendUint64(buf, uint64(createdNanos))
}

// DecodeHeader validates a segment header and returns its creation stamp
// and the header length consumed.
func DecodeHeader(data []byte) (createdNanos int64, n int, err error) {
	if len(data) < headerLen {
		return 0, 0, fmt.Errorf("samplelog: segment header %d bytes, want %d", len(data), headerLen)
	}
	if [4]byte(data[:4]) != magic {
		return 0, 0, errors.New("samplelog: bad segment magic")
	}
	if v := binary.BigEndian.Uint16(data[4:]); v != FormatVersion {
		return 0, 0, fmt.Errorf("%w: segment format v%d, reader speaks v%d", ErrFormat, v, FormatVersion)
	}
	return int64(binary.BigEndian.Uint64(data[8:])), headerLen, nil
}

// SegmentStats is what scanning one segment's bytes found: valid records,
// mid-file corruption, and the torn tail a crash left behind.
type SegmentStats struct {
	// CreatedNanos is the header's creation stamp.
	CreatedNanos int64 `json:"created_nanos"`
	// Records is how many valid records the segment holds.
	Records int `json:"records"`
	// ValidBytes is the byte offset just past the last valid record —
	// where a recovery truncation cuts.
	ValidBytes int64 `json:"valid_bytes"`
	// TornBytes is how many trailing bytes belong to a record cut short
	// by a crash (0 on a clean segment).
	TornBytes int64 `json:"torn_bytes"`
	// Corrupted counts checksum-mismatch records; the scan cannot resync
	// past the first one, so everything after it is also counted here.
	Corrupted int `json:"corrupted"`
}

// DecodeSegment scans one segment's bytes: the header, then records until
// the data ends, tears, or corrupts. fn (when non-nil) receives every
// valid record in order; a non-nil fn error aborts the scan and is
// returned. Torn tails and corruption are reported in the stats, not as
// errors — only a bad header or a fn error fail the scan.
func DecodeSegment(data []byte, fn func(Record) error) (SegmentStats, error) {
	var st SegmentStats
	created, off, err := DecodeHeader(data)
	if err != nil {
		return st, err
	}
	st.CreatedNanos = created
	st.ValidBytes = int64(off)
	for off < len(data) {
		rec, n, err := DecodeRecord(data[off:])
		if err != nil {
			if errors.Is(err, ErrTorn) {
				st.TornBytes = int64(len(data) - off)
			} else {
				// Framing is length-prefixed: past a corrupt record there
				// is no resync point, so the remainder counts as one run
				// of corruption.
				st.Corrupted++
			}
			return st, nil
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return st, err
			}
		}
		off += n
		st.Records++
		st.ValidBytes = int64(off)
	}
	return st, nil
}
