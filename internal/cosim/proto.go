// Package cosim turns the simulator into a long-running co-simulation
// service: a daemon hosting many persistent sessions (each a mesh + DVFS
// policy model instance, a sim.Session underneath) that an external
// master — another architecture simulator, a workload generator — drives
// over a versioned JSON-lines protocol, the same shape the uPIMulator
// platform uses to drive BookSim2 as its network timing oracle.
//
// Wire format: one JSON object per line, UTF-8, LF-terminated, at most
// MaxFrameBytes per line. Every request carries the protocol version
// ("v"), a caller-chosen correlation id ("id", echoed verbatim in the
// reply) and an operation ("op"); the remaining fields depend on the op.
// Replies carry "ok"; failures add a stable machine-readable "code" and
// a human-readable "error". The daemon answers every frame — including
// undecodable ones — and replies on one connection are in request order.
package cosim

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Version is the protocol version this package speaks. Requests carrying
// any other value are rejected with CodeBadVersion.
const Version = 1

// MaxFrameBytes bounds one request line. Oversized frames are rejected
// before JSON decoding, so a misbehaving client cannot balloon daemon
// memory.
const MaxFrameBytes = 64 << 10

// Operations. Each op uses a subset of Request's fields; DecodeFrame
// rejects frames with fields their op does not use (unknown JSON keys
// are rejected outright).
const (
	OpOpenSession  = "open-session"
	OpTransfer     = "transfer"
	OpAdvance      = "advance"
	OpQuery        = "query"
	OpCloseSession = "close-session"
)

// ProtoError codes. Stable across releases: clients switch on these, not
// on message text.
const (
	CodeEmpty      = "empty"
	CodeTooLarge   = "too-large"
	CodeBadJSON    = "bad-json"
	CodeBadVersion = "bad-version"
	CodeBadOp      = "bad-op"
	CodeBadField   = "bad-field"
)

// ProtoError is the typed decode/validation failure. Every malformed
// frame maps to one — DecodeFrame never panics and never returns a bare
// error (FuzzDecodeFrame enforces this).
type ProtoError struct {
	Code string // one of the Code constants
	Msg  string
}

func (e *ProtoError) Error() string { return "cosim: " + e.Code + ": " + e.Msg }

func protoErrf(code, format string, args ...any) *ProtoError {
	return &ProtoError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Request is one decoded protocol frame. Optional numeric fields are
// pointers so validation can distinguish "absent" from a legitimate
// zero (core 0, tick 0).
type Request struct {
	V  int    `json:"v"`
	ID int64  `json:"id"`
	Op string `json:"op"`

	// open-session
	Width     int    `json:"width,omitempty"`
	Height    int    `json:"height,omitempty"`
	Model     string `json:"model,omitempty"`
	Shards    int    `json:"shards,omitempty"`
	LinkTicks int64  `json:"link_ticks,omitempty"`

	// session-scoped ops
	Session string `json:"session,omitempty"`
	Src     *int   `json:"src,omitempty"`   // transfer
	Dst     *int   `json:"dst,omitempty"`   // transfer
	Bytes   *int64 `json:"bytes,omitempty"` // transfer
	At      *int64 `json:"at,omitempty"`    // transfer: absolute injection tick (default: now)
	Ticks   *int64 `json:"ticks,omitempty"` // advance
}

// Response is one reply frame. The daemon echoes V and the request's ID;
// op-specific results use the optional fields.
type Response struct {
	V    int    `json:"v"`
	ID   int64  `json:"id"`
	OK   bool   `json:"ok"`
	Code string `json:"code,omitempty"`
	Err  string `json:"error,omitempty"`

	// CodeBusy replies: a hint for when to retry.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`

	Session string `json:"session,omitempty"` // open-session
	Cores   int    `json:"cores,omitempty"`   // open-session

	Packets    int   `json:"packets,omitempty"`     // transfer: injections scheduled
	LatencyEst int64 `json:"latency_est,omitempty"` // transfer: ticks, backpressure hint

	Advanced int64 `json:"advanced,omitempty"` // advance
	Now      int64 `json:"now,omitempty"`      // advance / close-session
	// advance: energy spent inside the advanced window — the per-window
	// delta an external master integrates as the cost of wall-clock time.
	StaticDeltaJ  float64 `json:"static_dj,omitempty"`
	DynamicDeltaJ float64 `json:"dynamic_dj,omitempty"`

	Stats *Stats `json:"stats,omitempty"` // query / close-session
}

// Stats is the wire form of a session snapshot: sim.SessionStats, whose
// JSON tags are the wire field names.
type Stats = sim.SessionStats

// DecodeFrame parses and validates one request line (without the
// trailing newline; a trailing LF/CRLF is tolerated). All failures are
// *ProtoError; it never panics on any input.
func DecodeFrame(line []byte) (*Request, *ProtoError) {
	if len(line) > MaxFrameBytes {
		return nil, protoErrf(CodeTooLarge, "frame is %d bytes, limit %d", len(line), MaxFrameBytes)
	}
	line = bytes.TrimRight(line, "\r\n")
	if len(bytes.TrimSpace(line)) == 0 {
		return nil, protoErrf(CodeEmpty, "empty frame")
	}
	var req Request
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, protoErrf(CodeBadJSON, "%v", err)
	}
	// A line must be exactly one object — "{}{}" smuggles a second frame.
	if dec.More() {
		return nil, protoErrf(CodeBadJSON, "trailing data after frame")
	}
	if req.V != Version {
		return nil, protoErrf(CodeBadVersion, "version %d, want %d", req.V, Version)
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

func (r *Request) validate() *ProtoError {
	switch r.Op {
	case OpOpenSession:
		if r.Session != "" || r.Src != nil || r.Dst != nil || r.Bytes != nil || r.At != nil || r.Ticks != nil {
			return protoErrf(CodeBadField, "%s: unexpected session-op fields", r.Op)
		}
		if r.Width <= 0 || r.Height <= 0 {
			return protoErrf(CodeBadField, "%s: mesh %dx%d (width and height must be >= 1)", r.Op, r.Width, r.Height)
		}
		if r.Width > 64 || r.Height > 64 {
			return protoErrf(CodeBadField, "%s: mesh %dx%d exceeds 64x64", r.Op, r.Width, r.Height)
		}
		if r.Model == "" {
			return protoErrf(CodeBadField, "%s: missing model", r.Op)
		}
		if r.Shards < 0 {
			return protoErrf(CodeBadField, "%s: shards %d", r.Op, r.Shards)
		}
		if r.LinkTicks < 0 {
			return protoErrf(CodeBadField, "%s: link_ticks %d", r.Op, r.LinkTicks)
		}
	case OpTransfer:
		if err := r.needSession(); err != nil {
			return err
		}
		if r.Src == nil || r.Dst == nil || r.Bytes == nil {
			return protoErrf(CodeBadField, "%s: src, dst and bytes are required", r.Op)
		}
		if *r.Src < 0 || *r.Dst < 0 {
			return protoErrf(CodeBadField, "%s: cores (%d,%d)", r.Op, *r.Src, *r.Dst)
		}
		if *r.Bytes <= 0 || *r.Bytes > MaxTransferBytes {
			return protoErrf(CodeBadField, "%s: bytes %d outside (0,%d]", r.Op, *r.Bytes, MaxTransferBytes)
		}
		if r.At != nil && *r.At < 0 {
			return protoErrf(CodeBadField, "%s: at %d", r.Op, *r.At)
		}
		if r.Ticks != nil {
			return protoErrf(CodeBadField, "%s: unexpected ticks", r.Op)
		}
	case OpAdvance:
		if err := r.needSession(); err != nil {
			return err
		}
		if r.Src != nil || r.Dst != nil || r.Bytes != nil || r.At != nil {
			return protoErrf(CodeBadField, "%s: unexpected transfer fields", r.Op)
		}
		if r.Ticks == nil || *r.Ticks <= 0 || *r.Ticks > MaxAdvanceTicks {
			return protoErrf(CodeBadField, "%s: ticks must be in (0,%d]", r.Op, int64(MaxAdvanceTicks))
		}
	case OpQuery, OpCloseSession:
		if err := r.needSession(); err != nil {
			return err
		}
		if r.Src != nil || r.Dst != nil || r.Bytes != nil || r.At != nil || r.Ticks != nil {
			return protoErrf(CodeBadField, "%s: unexpected fields", r.Op)
		}
	case "":
		return protoErrf(CodeBadOp, "missing op")
	default:
		return protoErrf(CodeBadOp, "unknown op %q", r.Op)
	}
	return nil
}

func (r *Request) needSession() *ProtoError {
	if r.Session == "" {
		return protoErrf(CodeBadField, "%s: missing session", r.Op)
	}
	if r.Width != 0 || r.Height != 0 || r.Model != "" || r.Shards != 0 || r.LinkTicks != 0 {
		return protoErrf(CodeBadField, "%s: unexpected open-session fields", r.Op)
	}
	return nil
}

// Transfer sizing. One Response packet carries a 64-byte line (5 flits);
// a transfer of at most CtrlBytes rides a single 1-flit Request packet.
// MaxTransferBytes caps one transfer at 1 MiB = 16384 packets so a
// single frame cannot schedule unbounded work.
const (
	LineBytes        = 64
	CtrlBytes        = 8
	MaxTransferBytes = 1 << 20
)

// MaxAdvanceTicks caps one advance request; longer horizons are split by
// the caller into multiple frames, which keeps every frame's work (and
// the daemon's responsiveness) bounded.
const MaxAdvanceTicks int64 = 100_000_000

// ExpandTransfer maps one validated transfer request onto injection
// entries at absolute tick at: a single Request packet for control-sized
// payloads, else one Response packet per 64-byte line, all injected at
// the same tick in order (the source core's queue serializes them).
// Both the daemon and the equivalence test's direct-engine path use this
// one function, so "same transfers" means the same packets by
// construction.
func ExpandTransfer(src, dst int, nbytes, at int64) []traffic.Entry {
	if nbytes <= CtrlBytes {
		return []traffic.Entry{{Time: at, Src: src, Dst: dst, Kind: flit.Request}}
	}
	n := (nbytes + LineBytes - 1) / LineBytes
	out := make([]traffic.Entry, n)
	for i := range out {
		out[i] = traffic.Entry{Time: at, Src: src, Dst: dst, Kind: flit.Response}
	}
	return out
}

// EncodeResponse marshals one reply frame with its trailing newline.
func EncodeResponse(resp *Response) ([]byte, error) {
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
