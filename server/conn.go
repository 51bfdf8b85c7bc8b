package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"time"

	"repro/shard"
	"repro/wire"
)

const (
	connReadBuf  = 64 << 10
	connWriteBuf = 64 << 10
)

// serveConn is the per-connection pipelining loop: read one frame,
// serve it, append the response to a buffered writer, and flush only
// when the readable buffer is empty — a client that pipelines k
// requests gets k responses in one write, in request order.
//
// Deadline propagation happens here: the frame's remaining-budget field
// is converted to an absolute deadline measured at frame receipt, so
// time a request spends queued inside the server burns the same budget
// time queued at a stripe lock does. Receipt is the clock reading taken
// when the socket read that completed the frame returned (receiptReader):
// one reading per trip to the socket, shared by every frame that trip
// delivered, not one per frame. The deadline travels in the connection's
// one frameCtx, which costs a frame nothing more unless a callee has to
// wait (see frameCtx). The loop owns the time arithmetic and the admin
// verbs; the data-plane dispatch lives in handleOp, which is
// lockcheck-annotated as critical-section-grade code.
func (s *Server) serveConn(conn net.Conn) {
	rr := &receiptReader{conn: conn}
	br := bufio.NewReaderSize(rr, connReadBuf)
	bw := bufio.NewWriterSize(conn, connWriteBuf)
	defer bw.Flush() // drain: responses already built always reach the socket

	var hdr [wire.ReqHeaderSize]byte
	fctx := new(frameCtx) // re-pointed at every deadlined frame
	// The last frame that waited may have left the timer armed.
	defer fctx.reset(nil, time.Time{}, 0)
	payload := make([]byte, 0, 4096)
	resp := make([]byte, 0, 4096)
	// One context per request class, built once so the per-frame path
	// does not allocate a WithClass context; a deadlined frame's context
	// (frameCtx) forwards Value to its class's entry. A connection is one
	// client to the stripes: the contexts carry its own id, so a stripe
	// recording admission history counts connections (shard.WithClientID).
	base := shard.WithClientID(context.Background(), int(s.clients.Add(1)))
	var classCtx [shard.NumClasses]context.Context
	for c := range classCtx {
		classCtx[c] = shard.WithClass(base, c)
	}
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return // EOF, peer reset, or the drain read-deadline
		}
		h, err := wire.ParseReqHeader(hdr[:])
		if err != nil {
			// Malformed framing: answer, flush, and close — the byte
			// stream cannot be trusted to frame anything after this.
			s.badFrames.Add(1)
			resp = wire.AppendErrorResp(resp[:0], h.Op, badFrameStatus(err), err.Error())
			bw.Write(resp) //nolint:errcheck
			return
		}
		if cap(payload) < int(h.Len) {
			payload = make([]byte, h.Len)
		}
		p := payload[:h.Len]
		if _, err := io.ReadFull(br, p); err != nil {
			return
		}
		s.ops.Add(1)

		resp = resp[:0]
		switch h.Op {
		case wire.OpGet, wire.OpPut, wire.OpDel, wire.OpScan:
			if int(h.Class) >= shard.NumClasses {
				resp = wire.AppendErrorResp(resp, h.Op, wire.StatusBadClass, "class out of range")
				break
			}
			ctx := classCtx[h.Class]
			if h.DeadlineMicros != 0 {
				// wire.ExpiredBudget — the client's budget was gone before
				// the frame was written — is a budget of zero: the deadline
				// is the receipt time itself, so Err fails at once. An op
				// that reaches the stripe lock (a write, or a Get on the
				// locked read path or a declining backend) counts the
				// attempt and the miss, and the lock records the Cancel; a
				// lock-free Get hit is served and counts the attempt only.
				var budget time.Duration
				if h.DeadlineMicros != wire.ExpiredBudget {
					budget = time.Duration(h.DeadlineMicros) * time.Microsecond
				}
				fctx.reset(ctx, rr.at, budget)
				ctx = fctx
			}
			resp = s.handleOp(ctx, h.Op, p, resp)
		case wire.OpPing:
			resp = wire.AppendEmptyResp(resp, wire.OpPing)
		case wire.OpInfo:
			resp = wire.AppendTextResp(resp, wire.OpInfo, s.info())
		case wire.OpFault:
			resp = s.handleFault(p, resp)
		default:
			resp = wire.AppendErrorResp(resp, h.Op, wire.StatusUnknownOp, "unknown opcode")
		}

		if _, err := bw.Write(resp); err != nil {
			return
		}
		// Readable-buffer-empty flush: the client has nothing else in
		// flight that we know of, so ship the batch. While the reader
		// still holds frames, keep batching.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// receiptReader is the connection as the conn loop's bufio.Reader sees
// it: each read from the socket that returns bytes reads the clock once,
// and at is that reading — the receipt time of every frame the read
// completed. Only the connection's goroutine touches it.
type receiptReader struct {
	conn net.Conn
	at   time.Time
}

func (r *receiptReader) Read(p []byte) (int, error) {
	n, err := r.conn.Read(p)
	if n > 0 {
		r.at = time.Now()
	}
	return n, err
}

// handleOp dispatches one data-plane frame against the map and appends
// the response. It runs once per point op on every served connection —
// the server's hot path — so it is held to critical-section discipline:
// no clocks, no formatting, no channels, no goroutines. The caller owns
// the deadline arithmetic and the admin verbs.
//
//lockcheck:cs
func (s *Server) handleOp(ctx context.Context, op wire.Op, p, resp []byte) []byte {
	switch op {
	case wire.OpGet:
		key, err := wire.ParseKey(p)
		if err != nil {
			return wire.AppendErrorResp(resp, op, wire.StatusBadFrame, err.Error())
		}
		val, ok, err := s.m.GetContext(ctx, key)
		if err != nil {
			return wire.AppendErrorResp(resp, op, errStatus(err), err.Error())
		}
		return wire.AppendGetResp(resp, ok, val)
	case wire.OpPut:
		key, val, err := wire.ParseKeyVal(p)
		if err != nil {
			return wire.AppendErrorResp(resp, op, wire.StatusBadFrame, err.Error())
		}
		fresh, err := s.m.PutContext(ctx, key, val)
		if err != nil {
			return wire.AppendErrorResp(resp, op, errStatus(err), err.Error())
		}
		return wire.AppendPutResp(resp, fresh)
	case wire.OpDel:
		key, err := wire.ParseKey(p)
		if err != nil {
			return wire.AppendErrorResp(resp, op, wire.StatusBadFrame, err.Error())
		}
		present, err := s.m.DeleteContext(ctx, key)
		if err != nil {
			return wire.AppendErrorResp(resp, op, errStatus(err), err.Error())
		}
		return wire.AppendDelResp(resp, present)
	case wire.OpScan:
		lo, hi, max, err := wire.ParseScan(p)
		if err != nil {
			return wire.AppendErrorResp(resp, op, wire.StatusBadFrame, err.Error())
		}
		out, start := wire.BeginScanResp(resp)
		// max bounds what each stripe copies out under its lock to what
		// the response can carry, not to what [lo, hi] holds.
		err = s.m.ScanFirst(ctx, lo, hi, int(max), func(k, v uint64) bool {
			out = wire.AppendScanPair(out, k, v)
			return true
		})
		if err != nil {
			// Partial pairs are abandoned with the truncation: the reply
			// is the error, not a half-scan posing as a result.
			return wire.AppendErrorResp(resp[:start], op, errStatus(err), err.Error())
		}
		return wire.EndScanResp(out, start)
	}
	return wire.AppendErrorResp(resp, op, wire.StatusUnknownOp, "unknown opcode")
}

// handleFault serves the FAULT admin verb (arm/disarm/stats).
func (s *Server) handleFault(p, resp []byte) []byte {
	sub, spec, err := wire.ParseFault(p)
	if err != nil {
		return wire.AppendErrorResp(resp, wire.OpFault, wire.StatusBadFrame, err.Error())
	}
	switch sub {
	case wire.FaultArm:
		if err := s.armFault(string(spec)); err != nil {
			return wire.AppendErrorResp(resp, wire.OpFault, wire.StatusBadFault, err.Error())
		}
		return wire.AppendEmptyResp(resp, wire.OpFault)
	case wire.FaultDisarm:
		s.disarmFault()
		return wire.AppendEmptyResp(resp, wire.OpFault)
	default: // wire.FaultStats — ParseFault admits nothing else
		return wire.AppendTextResp(resp, wire.OpFault, s.faultStats())
	}
}

// errStatus maps a map-layer error to its wire status.
//
//lockcheck:cs
func errStatus(err error) wire.Status {
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return wire.StatusDeadline
	case errors.Is(err, shard.ErrUnordered):
		return wire.StatusUnordered
	}
	return wire.StatusInternal
}

// badFrameStatus distinguishes the oversized-payload reject from the
// generic malformed-header reject.
func badFrameStatus(err error) wire.Status {
	if errors.Is(err, wire.ErrPayloadSize) {
		return wire.StatusTooLarge
	}
	return wire.StatusBadFrame
}
