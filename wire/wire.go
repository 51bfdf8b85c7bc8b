// Package wire defines the compact length-prefixed binary protocol that
// serves a shard.Map over a byte stream (cmd/shardd speaks it on the
// server side, cmd/shardload and the in-package Client on the client
// side). The protocol's defining property is that the shard layer's
// deadline semantics extend end-to-end: every request frame carries a
// request-class byte and a deadline field, so the budget a client
// attaches at its socket is the budget lock.ContextMutex.LockContext
// enforces at the stripe — the paper's admission story measured from
// the arrival's true origin instead of from a goroutine the benchmark
// spawned itself.
//
// # Frames
//
// All integers are big-endian. A request frame is a fixed 12-byte
// header followed by an opcode-specific payload:
//
//	[0]     version   (Version; frames with any other value are rejected)
//	[1]     opcode    (OpGet..OpFault)
//	[2]     class     (request class for per-stripe deadline accounting;
//	                   must be < shard.NumClasses, 0 = unclassified)
//	[3]     flags     (reserved; must be 0)
//	[4:8]   deadline  (uint32 microseconds of budget remaining, measured
//	                   by the client when it writes the frame; 0 = none,
//	                   all-ones = ExpiredBudget, already expired)
//	[8:12]  length    (uint32 payload length, <= MaxPayload)
//
// A response frame is a fixed 8-byte header plus payload:
//
//	[0]     version
//	[1]     opcode    (echoed from the request)
//	[2]     status    (StatusOK or a typed error Status)
//	[3]     flags     (reserved; 0)
//	[4:8]   length    (uint32 payload length, <= MaxPayload)
//
// Responses are written in request order (the protocol pipelines; it
// does not multiplex), so no frame carries a request id. Point-op
// payloads are fixed-shape — encode and decode touch only the caller's
// buffers and allocate nothing.
//
// # Payloads
//
//	GET   req: key u64                    resp: found u8, val u64
//	PUT   req: key u64, val u64           resp: fresh u8
//	DEL   req: key u64                    resp: present u8
//	SCAN  req: lo u64, hi u64, max u32    resp: count u32, count×(k u64, v u64)
//	PING  req: —                          resp: —
//	INFO  req: —                          resp: text "key=value" lines
//	FAULT req: sub u8, [spec bytes]       resp: — (sub=stats: text lines)
//
// Error responses carry the Status in the header and a human-readable
// message as payload; Status.Err maps each to a sentinel error that
// errors.Is can match (ErrDeadline for a budget that expired before the
// stripe was reached, ErrUnordered for a scan against an unordered
// backend, and so on).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the frame header version this package speaks. A request or
// response whose first byte differs is rejected before anything else is
// read — the version byte is the evolution seam.
const Version = 1

// Header and payload size limits.
const (
	// ReqHeaderSize and RespHeaderSize are the fixed frame header sizes.
	ReqHeaderSize  = 12
	RespHeaderSize = 8
	// MaxPayload bounds a frame's payload length: a hostile or corrupt
	// length prefix must not make a reader allocate gigabytes before the
	// first payload byte arrives.
	MaxPayload = 1 << 20
	// MaxScanPairs bounds the pairs one SCAN response may carry; a
	// request asking for more (or for 0, the "no limit" shorthand) is
	// clamped to it. 65535 pairs × 16 bytes stays within MaxPayload.
	MaxScanPairs = 65535
)

// ExpiredBudget is the deadline-field sentinel for a budget that was
// already exhausted when the client wrote the frame. 0 means patient,
// so expiry needs its own encoding: the server must still route the
// request down the deadline path, but against a context expired
// deterministically at receipt, not one racing a microsecond timer the
// uncontended fast path can outrun. An op that reaches the stripe lock
// — a write, or a Get on the locked read path or a backend without
// lock-free reads — fails: the stripe counts the attempt and the miss,
// the lock records a Cancel. A lock-free Get hit (the default read path
// on hashmap) is served: the stripe counts the attempt only. The value it shadows (a
// real budget of 2^32-1 µs, ~71.6 minutes) is patient in practice and
// encodes as 0.
const ExpiredBudget = 1<<32 - 1

// Op is a request opcode.
type Op uint8

// Opcodes. Get/Put/Del are the point operations (fixed-shape payloads,
// allocation-free on both ends); Scan is the ordered range read; Ping,
// Info, and Fault are the admin verbs (Fault arms a server-side
// fault-injection set, so chaos timelines run over the wire).
const (
	OpGet Op = iota + 1
	OpPut
	OpDel
	OpScan
	OpPing
	OpInfo
	OpFault
)

// String returns the opcode's wire-doc name.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDel:
		return "DEL"
	case OpScan:
		return "SCAN"
	case OpPing:
		return "PING"
	case OpInfo:
		return "INFO"
	case OpFault:
		return "FAULT"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// FAULT subverbs (first payload byte of an OpFault request).
const (
	// FaultArm installs and arms the fault set described by the spec
	// bytes that follow (see fault.New for the grammar).
	FaultArm uint8 = 1
	// FaultDisarm stops all injection immediately.
	FaultDisarm uint8 = 2
	// FaultStats asks for the injected-fault evidence counters as text
	// "key=value" lines.
	FaultStats uint8 = 3
)

// Status is a response status code. StatusOK is success; everything
// else is a typed error whose response payload is a human-readable
// message.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	// StatusDeadline: the request's deadline budget expired before the
	// owning stripe was reached (the shard layer returned ctx.Err()).
	StatusDeadline
	// StatusUnordered: a SCAN against a map whose current backends do
	// not maintain key order (shard.ErrUnordered).
	StatusUnordered
	// StatusBadFrame: the frame header or payload shape was malformed
	// (wrong version, nonzero flags, payload length not matching the
	// opcode). The server closes the connection after sending it —
	// framing cannot be trusted past a malformed header.
	StatusBadFrame
	// StatusUnknownOp: the opcode is not one this server serves.
	StatusUnknownOp
	// StatusBadClass: the request-class byte is >= shard.NumClasses.
	StatusBadClass
	// StatusTooLarge: the payload length exceeds MaxPayload.
	StatusTooLarge
	// StatusBadFault: a FAULT arm spec the fault registry rejected.
	StatusBadFault
	// StatusDraining: the server is draining and no longer serves this
	// connection.
	StatusDraining
	// StatusInternal: an unexpected server-side failure.
	StatusInternal
)

// String returns the status's wire-doc name.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusDeadline:
		return "DEADLINE"
	case StatusUnordered:
		return "UNORDERED"
	case StatusBadFrame:
		return "BAD_FRAME"
	case StatusUnknownOp:
		return "UNKNOWN_OP"
	case StatusBadClass:
		return "BAD_CLASS"
	case StatusTooLarge:
		return "TOO_LARGE"
	case StatusBadFault:
		return "BAD_FAULT"
	case StatusDraining:
		return "DRAINING"
	case StatusInternal:
		return "INTERNAL"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// StatusError is the error form of a non-OK response: the typed status
// plus the server's message payload. Two StatusErrors match under
// errors.Is when their Status agrees, so callers test categories with
// the sentinels below regardless of message text.
type StatusError struct {
	Status Status
	Msg    string
}

// Error renders the status name and any server message.
func (e *StatusError) Error() string {
	if e.Msg == "" {
		return "wire: " + e.Status.String()
	}
	return "wire: " + e.Status.String() + ": " + e.Msg
}

// Is matches any StatusError with the same Status, which is what makes
// errors.Is(err, wire.ErrDeadline) work on errors carrying messages.
func (e *StatusError) Is(target error) bool {
	t, ok := target.(*StatusError)
	return ok && t.Status == e.Status
}

// Sentinel errors for the typed response statuses; match with
// errors.Is. statusErrs pre-builds the message-free values so the
// common client paths (a deadline miss under a storm) allocate nothing
// per error.
var (
	ErrDeadline  = &StatusError{Status: StatusDeadline}
	ErrUnordered = &StatusError{Status: StatusUnordered}
	ErrBadFrame  = &StatusError{Status: StatusBadFrame}
	ErrUnknownOp = &StatusError{Status: StatusUnknownOp}
	ErrBadClass  = &StatusError{Status: StatusBadClass}
	ErrTooLarge  = &StatusError{Status: StatusTooLarge}
	ErrBadFault  = &StatusError{Status: StatusBadFault}
	ErrDraining  = &StatusError{Status: StatusDraining}
	ErrInternal  = &StatusError{Status: StatusInternal}
)

var statusErrs = [...]*StatusError{
	StatusDeadline:  ErrDeadline,
	StatusUnordered: ErrUnordered,
	StatusBadFrame:  ErrBadFrame,
	StatusUnknownOp: ErrUnknownOp,
	StatusBadClass:  ErrBadClass,
	StatusTooLarge:  ErrTooLarge,
	StatusBadFault:  ErrBadFault,
	StatusDraining:  ErrDraining,
	StatusInternal:  ErrInternal,
}

// Err maps a status to its sentinel error (nil for StatusOK). When the
// response carried a message, wrap it: &StatusError{Status: s, Msg: m}
// still matches the sentinel under errors.Is.
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	if int(s) < len(statusErrs) && statusErrs[s] != nil {
		return statusErrs[s]
	}
	return &StatusError{Status: s}
}

// Frame-shape errors returned by the parse functions (decode totality:
// a parse either succeeds or returns one of these — it never panics and
// never reads past the slice it was given).
var (
	ErrShortHeader   = errors.New("wire: short header")
	ErrVersion       = errors.New("wire: unknown frame version")
	ErrFlags         = errors.New("wire: reserved flag bits set")
	ErrPayloadSize   = errors.New("wire: payload length exceeds MaxPayload")
	ErrPayloadShape  = errors.New("wire: payload does not match opcode shape")
	ErrResponseShape = errors.New("wire: response payload does not match opcode shape")
)

// ReqHeader is a decoded request frame header.
type ReqHeader struct {
	Op Op
	// Class is the request class for per-stripe deadline accounting
	// (shard.WithClass). The server rejects classes >= shard.NumClasses
	// with StatusBadClass; the parse layer only carries the byte.
	Class uint8
	// DeadlineMicros is the request's remaining deadline budget in
	// microseconds at the moment the client wrote the frame; 0 means
	// the request is patient (no deadline), ExpiredBudget means the
	// budget was gone before the frame was written. The server converts
	// it to a context deadline measured from frame receipt, so queueing
	// inside the server burns the same budget queueing at a stripe lock
	// does.
	DeadlineMicros uint32
	// Len is the payload length in bytes.
	Len uint32
}

// PutReqHeader encodes h into b, which must be at least ReqHeaderSize
// bytes (a fixed array on the caller keeps this allocation-free).
func PutReqHeader(b []byte, h ReqHeader) {
	_ = b[ReqHeaderSize-1]
	b[0] = Version
	b[1] = byte(h.Op)
	b[2] = h.Class
	b[3] = 0
	binary.BigEndian.PutUint32(b[4:8], h.DeadlineMicros)
	binary.BigEndian.PutUint32(b[8:12], h.Len)
}

// ParseReqHeader decodes a request frame header. It rejects short
// input, version mismatches, reserved flag bits, and oversized payload
// lengths — everything a reader must check before trusting Len.
func ParseReqHeader(b []byte) (ReqHeader, error) {
	if len(b) < ReqHeaderSize {
		return ReqHeader{}, ErrShortHeader
	}
	if b[0] != Version {
		return ReqHeader{}, ErrVersion
	}
	if b[3] != 0 {
		return ReqHeader{}, ErrFlags
	}
	h := ReqHeader{
		Op:             Op(b[1]),
		Class:          b[2],
		DeadlineMicros: binary.BigEndian.Uint32(b[4:8]),
		Len:            binary.BigEndian.Uint32(b[8:12]),
	}
	if h.Len > MaxPayload {
		return ReqHeader{}, ErrPayloadSize
	}
	return h, nil
}

// RespHeader is a decoded response frame header.
type RespHeader struct {
	Op     Op
	Status Status
	Len    uint32
}

// PutRespHeader encodes h into b, which must be at least RespHeaderSize
// bytes.
func PutRespHeader(b []byte, h RespHeader) {
	_ = b[RespHeaderSize-1]
	b[0] = Version
	b[1] = byte(h.Op)
	b[2] = byte(h.Status)
	b[3] = 0
	binary.BigEndian.PutUint32(b[4:8], h.Len)
}

// ParseRespHeader decodes a response frame header with the same checks
// as ParseReqHeader.
func ParseRespHeader(b []byte) (RespHeader, error) {
	if len(b) < RespHeaderSize {
		return RespHeader{}, ErrShortHeader
	}
	if b[0] != Version {
		return RespHeader{}, ErrVersion
	}
	if b[3] != 0 {
		return RespHeader{}, ErrFlags
	}
	h := RespHeader{
		Op:     Op(b[1]),
		Status: Status(b[2]),
		Len:    binary.BigEndian.Uint32(b[4:8]),
	}
	if h.Len > MaxPayload {
		return RespHeader{}, ErrPayloadSize
	}
	return h, nil
}

// Request payload sizes per opcode (fixed-shape ops).
const (
	getPayload  = 8
	putPayload  = 16
	delPayload  = 8
	scanPayload = 20
)

// AppendGet appends a complete GET request frame to dst.
func AppendGet(dst []byte, class uint8, deadlineMicros uint32, key uint64) []byte {
	dst = appendReqHeader(dst, OpGet, class, deadlineMicros, getPayload)
	return binary.BigEndian.AppendUint64(dst, key)
}

// AppendPut appends a complete PUT request frame to dst.
func AppendPut(dst []byte, class uint8, deadlineMicros uint32, key, val uint64) []byte {
	dst = appendReqHeader(dst, OpPut, class, deadlineMicros, putPayload)
	dst = binary.BigEndian.AppendUint64(dst, key)
	return binary.BigEndian.AppendUint64(dst, val)
}

// AppendDel appends a complete DEL request frame to dst.
func AppendDel(dst []byte, class uint8, deadlineMicros uint32, key uint64) []byte {
	dst = appendReqHeader(dst, OpDel, class, deadlineMicros, delPayload)
	return binary.BigEndian.AppendUint64(dst, key)
}

// AppendScan appends a complete SCAN request frame to dst. max bounds
// the pairs the response may carry; 0 or anything above MaxScanPairs
// means MaxScanPairs.
func AppendScan(dst []byte, class uint8, deadlineMicros uint32, lo, hi uint64, max uint32) []byte {
	dst = appendReqHeader(dst, OpScan, class, deadlineMicros, scanPayload)
	dst = binary.BigEndian.AppendUint64(dst, lo)
	dst = binary.BigEndian.AppendUint64(dst, hi)
	return binary.BigEndian.AppendUint32(dst, max)
}

// AppendPing appends a PING request frame to dst.
func AppendPing(dst []byte) []byte {
	return appendReqHeader(dst, OpPing, 0, 0, 0)
}

// AppendInfo appends an INFO request frame to dst.
func AppendInfo(dst []byte) []byte {
	return appendReqHeader(dst, OpInfo, 0, 0, 0)
}

// AppendFaultArm appends a FAULT arm request carrying the fault-set
// spec (see fault.New for the grammar).
func AppendFaultArm(dst []byte, spec string) []byte {
	dst = appendReqHeader(dst, OpFault, 0, 0, uint32(1+len(spec)))
	dst = append(dst, FaultArm)
	return append(dst, spec...)
}

// AppendFaultDisarm appends a FAULT disarm request.
func AppendFaultDisarm(dst []byte) []byte {
	dst = appendReqHeader(dst, OpFault, 0, 0, 1)
	return append(dst, FaultDisarm)
}

// AppendFaultStats appends a FAULT stats request.
func AppendFaultStats(dst []byte) []byte {
	dst = appendReqHeader(dst, OpFault, 0, 0, 1)
	return append(dst, FaultStats)
}

func appendReqHeader(dst []byte, op Op, class uint8, deadlineMicros uint32, plen uint32) []byte {
	var h [ReqHeaderSize]byte
	PutReqHeader(h[:], ReqHeader{Op: op, Class: class, DeadlineMicros: deadlineMicros, Len: plen})
	return append(dst, h[:]...)
}

// ParseKey decodes a GET/DEL payload.
func ParseKey(p []byte) (uint64, error) {
	if len(p) != getPayload {
		return 0, ErrPayloadShape
	}
	return binary.BigEndian.Uint64(p), nil
}

// ParseKeyVal decodes a PUT payload.
func ParseKeyVal(p []byte) (key, val uint64, err error) {
	if len(p) != putPayload {
		return 0, 0, ErrPayloadShape
	}
	return binary.BigEndian.Uint64(p[:8]), binary.BigEndian.Uint64(p[8:16]), nil
}

// ParseScan decodes a SCAN payload, clamping max into (0, MaxScanPairs].
func ParseScan(p []byte) (lo, hi uint64, max uint32, err error) {
	if len(p) != scanPayload {
		return 0, 0, 0, ErrPayloadShape
	}
	lo = binary.BigEndian.Uint64(p[:8])
	hi = binary.BigEndian.Uint64(p[8:16])
	max = binary.BigEndian.Uint32(p[16:20])
	if max == 0 || max > MaxScanPairs {
		max = MaxScanPairs
	}
	return lo, hi, max, nil
}

// ParseFault decodes a FAULT payload into its subverb and (for arm) the
// spec bytes. The spec aliases p — copy it before retaining.
func ParseFault(p []byte) (sub uint8, spec []byte, err error) {
	if len(p) < 1 {
		return 0, nil, ErrPayloadShape
	}
	sub = p[0]
	switch sub {
	case FaultArm:
		return sub, p[1:], nil
	case FaultDisarm, FaultStats:
		if len(p) != 1 {
			return 0, nil, ErrPayloadShape
		}
		return sub, nil, nil
	}
	return 0, nil, ErrPayloadShape
}

// Response payload builders. Each appends a complete response frame to
// dst; point-op responses are fixed-shape and allocation-free (given
// capacity in dst).

// AppendGetResp appends a GET response frame.
func AppendGetResp(dst []byte, found bool, val uint64) []byte {
	dst = appendRespHeader(dst, OpGet, StatusOK, 9)
	dst = append(dst, boolByte(found))
	return binary.BigEndian.AppendUint64(dst, val)
}

// AppendPutResp appends a PUT response frame.
func AppendPutResp(dst []byte, fresh bool) []byte {
	dst = appendRespHeader(dst, OpPut, StatusOK, 1)
	return append(dst, boolByte(fresh))
}

// AppendDelResp appends a DEL response frame.
func AppendDelResp(dst []byte, present bool) []byte {
	dst = appendRespHeader(dst, OpDel, StatusOK, 1)
	return append(dst, boolByte(present))
}

// BeginScanResp appends a SCAN response header with a zero pair count
// and returns the frame's start offset; append pairs with
// AppendScanPair and patch the counts with EndScanResp. The
// reserve-append-patch shape exists because the pair count is not known
// until the cross-stripe merge has run, and buffering pairs anywhere
// else would be a second copy.
func BeginScanResp(dst []byte) ([]byte, int) {
	start := len(dst)
	dst = appendRespHeader(dst, OpScan, StatusOK, 4)
	dst = binary.BigEndian.AppendUint32(dst, 0)
	return dst, start
}

// AppendScanPair appends one key/value pair to an open SCAN response.
func AppendScanPair(dst []byte, key, val uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, key)
	return binary.BigEndian.AppendUint64(dst, val)
}

// EndScanResp patches the payload length and pair count of the SCAN
// response opened at start and returns dst.
func EndScanResp(dst []byte, start int) []byte {
	payload := len(dst) - start - RespHeaderSize
	pairs := (payload - 4) / 16
	binary.BigEndian.PutUint32(dst[start+4:start+8], uint32(payload))
	binary.BigEndian.PutUint32(dst[start+RespHeaderSize:start+RespHeaderSize+4], uint32(pairs))
	return dst
}

// AppendEmptyResp appends a payload-free success response (PING, FAULT
// arm/disarm acknowledgements).
func AppendEmptyResp(dst []byte, op Op) []byte {
	return appendRespHeader(dst, op, StatusOK, 0)
}

// AppendTextResp appends a success response whose payload is text
// (INFO, FAULT stats).
func AppendTextResp(dst []byte, op Op, text []byte) []byte {
	dst = appendRespHeader(dst, op, StatusOK, uint32(len(text)))
	return append(dst, text...)
}

// AppendErrorResp appends an error response: the typed status plus a
// human-readable message payload.
func AppendErrorResp(dst []byte, op Op, status Status, msg string) []byte {
	dst = appendRespHeader(dst, op, status, uint32(len(msg)))
	return append(dst, msg...)
}

func appendRespHeader(dst []byte, op Op, status Status, plen uint32) []byte {
	var h [RespHeaderSize]byte
	PutRespHeader(h[:], RespHeader{Op: op, Status: status, Len: plen})
	return append(dst, h[:]...)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// ParseGetResp decodes a GET response payload.
func ParseGetResp(p []byte) (val uint64, found bool, err error) {
	if len(p) != 9 {
		return 0, false, ErrResponseShape
	}
	return binary.BigEndian.Uint64(p[1:9]), p[0] != 0, nil
}

// ParseBoolResp decodes a PUT/DEL response payload (fresh/present).
func ParseBoolResp(p []byte) (bool, error) {
	if len(p) != 1 {
		return false, ErrResponseShape
	}
	return p[0] != 0, nil
}

// ParseScanResp decodes a SCAN response payload and calls fn for each
// pair in ascending key order. It returns the pair count.
func ParseScanResp(p []byte, fn func(key, val uint64) bool) (int, error) {
	if len(p) < 4 {
		return 0, ErrResponseShape
	}
	n := int(binary.BigEndian.Uint32(p[:4]))
	if len(p) != 4+16*n {
		return 0, ErrResponseShape
	}
	for i := 0; i < n; i++ {
		off := 4 + 16*i
		k := binary.BigEndian.Uint64(p[off : off+8])
		v := binary.BigEndian.Uint64(p[off+8 : off+16])
		if !fn(k, v) {
			break
		}
	}
	return n, nil
}
