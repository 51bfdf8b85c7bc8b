package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"
)

// Client is a synchronous client for one shardd connection: each call
// writes a request frame and blocks for its response. It is not safe
// for concurrent use — a load generator that wants in-flight pipelining
// owns its own frame buffers and uses the Append*/Parse* functions
// directly (cmd/shardload does); Client is the simple path for tests,
// examples, and admin verbs.
//
// The request headers a Client writes carry the remaining budget of the
// deadline passed per call, converted to microseconds at write time, so
// the server re-arms an equivalent context deadline on its side of the
// wire.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte // request frame under construction, reused
	rbuf []byte // response payload, reused
	// Class is the request-class byte stamped on every point op and
	// scan. Zero (unclassified) by default.
	Class uint8
}

// Dial connects to a shardd server at addr (host:port).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (e.g. a net.Pipe end or a
// pre-dialed socket) in a Client.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 4096),
		wbuf: make([]byte, 0, 256),
		rbuf: make([]byte, 0, 256),
	}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// budgetMicros converts an absolute deadline into the wire's
// remaining-budget field. The zero time means patient (0 on the wire).
// An already-expired deadline encodes as the ExpiredBudget sentinel —
// the server must see the expiry to count the miss, and it must see it
// deterministically rather than as a microsecond timer it may outrun.
func budgetMicros(deadline time.Time) uint32 {
	if deadline.IsZero() {
		return 0
	}
	d := time.Until(deadline)
	if d <= 0 {
		return ExpiredBudget
	}
	us := d.Microseconds()
	if us < 1 {
		us = 1
	}
	if us >= ExpiredBudget {
		return 0 // budgets beyond ~71 minutes are patient in practice
	}
	return uint32(us)
}

// Get fetches key. deadline zero means patient.
func (c *Client) Get(key uint64, deadline time.Time) (val uint64, found bool, err error) {
	c.wbuf = AppendGet(c.wbuf[:0], c.Class, budgetMicros(deadline), key)
	p, err := c.roundTrip(OpGet)
	if err != nil {
		return 0, false, err
	}
	return ParseGetResp(p)
}

// Put stores key=val and reports whether the key was fresh (absent
// before). deadline zero means patient.
func (c *Client) Put(key, val uint64, deadline time.Time) (fresh bool, err error) {
	c.wbuf = AppendPut(c.wbuf[:0], c.Class, budgetMicros(deadline), key, val)
	p, err := c.roundTrip(OpPut)
	if err != nil {
		return false, err
	}
	return ParseBoolResp(p)
}

// Delete removes key and reports whether it was present. deadline zero
// means patient.
func (c *Client) Delete(key uint64, deadline time.Time) (present bool, err error) {
	c.wbuf = AppendDel(c.wbuf[:0], c.Class, budgetMicros(deadline), key)
	p, err := c.roundTrip(OpDel)
	if err != nil {
		return false, err
	}
	return ParseBoolResp(p)
}

// Scan streams the pairs in [lo, hi] (ascending keys) to fn until fn
// returns false; max bounds the result (0 = MaxScanPairs). It returns
// the pair count.
func (c *Client) Scan(lo, hi uint64, max uint32, deadline time.Time, fn func(key, val uint64) bool) (int, error) {
	c.wbuf = AppendScan(c.wbuf[:0], c.Class, budgetMicros(deadline), lo, hi, max)
	p, err := c.roundTrip(OpScan)
	if err != nil {
		return 0, err
	}
	return ParseScanResp(p, fn)
}

// Ping round-trips an empty frame.
func (c *Client) Ping() error {
	c.wbuf = AppendPing(c.wbuf[:0])
	_, err := c.roundTrip(OpPing)
	return err
}

// Info returns the server's "key=value" description lines (lock spec,
// backend spec, stripes, read path, then the map's counters).
func (c *Client) Info() (string, error) {
	c.wbuf = AppendInfo(c.wbuf[:0])
	p, err := c.roundTrip(OpInfo)
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// FaultArm installs and arms a fault set on the server (spec grammar:
// fault.New).
func (c *Client) FaultArm(spec string) error {
	c.wbuf = AppendFaultArm(c.wbuf[:0], spec)
	_, err := c.roundTrip(OpFault)
	return err
}

// FaultDisarm stops all server-side injection.
func (c *Client) FaultDisarm() error {
	c.wbuf = AppendFaultDisarm(c.wbuf[:0])
	_, err := c.roundTrip(OpFault)
	return err
}

// FaultStats returns the armed fault set's evidence counters as
// "key=value" lines.
func (c *Client) FaultStats() (string, error) {
	c.wbuf = AppendFaultStats(c.wbuf[:0])
	p, err := c.roundTrip(OpFault)
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// roundTrip writes the frame staged in wbuf and reads one response,
// returning its payload (aliasing rbuf — valid until the next call).
func (c *Client) roundTrip(op Op) ([]byte, error) {
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return nil, err
	}
	return c.readResp(op)
}

func (c *Client) readResp(op Op) ([]byte, error) {
	var hb [RespHeaderSize]byte
	if _, err := io.ReadFull(c.br, hb[:]); err != nil {
		return nil, err
	}
	h, err := ParseRespHeader(hb[:])
	if err != nil {
		return nil, err
	}
	if cap(c.rbuf) < int(h.Len) {
		c.rbuf = make([]byte, h.Len)
	}
	p := c.rbuf[:h.Len]
	if _, err := io.ReadFull(c.br, p); err != nil {
		return nil, err
	}
	if h.Op != op {
		return nil, fmt.Errorf("wire: response op %v for request %v", h.Op, op)
	}
	if h.Status != StatusOK {
		base := h.Status.Err()
		if len(p) == 0 {
			return nil, base
		}
		var se *StatusError
		if errors.As(base, &se) {
			return nil, &StatusError{Status: se.Status, Msg: string(p)}
		}
		return nil, base
	}
	return p, nil
}
