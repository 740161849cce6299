package dist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"elephants/internal/fault"
)

// session is one kept connection from the coordinator to a shard. Both
// directions are buffered, so a request leaves in one write, and each
// direction carries one gob stream for the life of the connection —
// requests out, response headers in — so a type's descriptor crosses
// once per connection. A session serves one exchange at a time; between
// exchanges it waits on its coordinator's idle list.
type session struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	out  *gobOut
	in   *gobIn
	seq  uint64
	// used: an exchange has completed on the session, so a failure on it
	// may only mean that the shard hung up while it sat idle.
	used bool
}

func newSession(conn net.Conn) *session {
	return &session{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn), out: newGobOut(), in: newGobIn()}
}

func dialSession(addr string, deadline time.Time) (*session, error) {
	conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newSession(conn), nil
}

// hangupError is an exchange that failed before any byte of the answer
// arrived, on frames the injector let pass, and not for want of time:
// what a connection that the shard closed while it sat idle looks like.
type hangupError struct{ err error }

func (e *hangupError) Error() string { return e.err.Error() }

func (e *hangupError) Unwrap() error { return e.err }

// passed reports whether the injector let a frame through intact.
func passed(a fault.NetAction) bool { return a == fault.NetNone || a == fault.NetDelay }

// roundTrip sends req on s under deadline and reads the answer to it:
// an answer whose sequence number is not req's fails the exchange.
// clean reports that the injector let both frames through intact, so
// the two gob streams are still in step and s may be kept.
func (s *session) roundTrip(shard int, req Request, deadline time.Time, inj *fault.NetInjector) (resp Response, clean bool, err error) {
	s.conn.SetDeadline(deadline)
	s.seq++
	req.Seq = s.seq
	payload, err := s.out.encode(nil, req)
	if err != nil {
		return resp, false, err
	}
	sent, err := s.sendFrame(shard, payload, inj)
	got := fault.NetNone
	if err == nil {
		got, err = s.awaitAnswer(shard, inj)
	}
	if err != nil {
		if passed(sent) && passed(got) && !errors.Is(err, os.ErrDeadlineExceeded) {
			err = &hangupError{err}
		}
		return resp, false, err
	}
	data, err := ReadFrame(s.r)
	if err != nil {
		return resp, false, err
	}
	if resp, err = s.in.response(data); err != nil {
		return resp, false, err
	}
	if resp.Seq != req.Seq {
		return resp, false, fmt.Errorf("dist: shard %d answered request %d with the answer to request %d", shard, req.Seq, resp.Seq)
	}
	s.used = true
	return resp, passed(sent) && passed(got), nil
}

// sendFrame writes the request frame and flushes it, applying the
// injected fate of the coordinator→shard message, which it returns.
func (s *session) sendFrame(shard int, payload []byte, inj *fault.NetInjector) (fault.NetAction, error) {
	action, delay := fault.NetNone, time.Duration(0)
	if inj != nil {
		action, delay = inj.Next(fmt.Sprintf("coord->shard%d", shard))
	}
	switch action {
	case fault.NetReset:
		s.conn.Close()
		return action, errors.New("dist: injected connection reset on send")
	case fault.NetDrop:
		// The shard never sees the request; the response read blocks
		// until the attempt deadline — the slow-failure mode deadlines
		// exist for.
		return action, nil
	case fault.NetTruncate:
		// Ship length + half the payload, then hang up: the shard's
		// framed read fails and it drops the connection.
		if f, err := beginFrame(s.w, len(payload)); err == nil {
			f.Write(payload[:len(payload)/2])
		}
		s.w.Flush()
		s.conn.Close()
		return action, errors.New("dist: injected truncated request")
	case fault.NetDuplicate:
		if err := WriteFrame(s.w, payload); err != nil {
			return action, err
		}
	case fault.NetDelay:
		time.Sleep(delay)
	}
	if err := WriteFrame(s.w, payload); err != nil {
		return action, err
	}
	return action, s.w.Flush()
}

// awaitAnswer applies the injected fate of the shard→coordinator
// message, which it returns, and when the message is let through waits
// for its first byte.
func (s *session) awaitAnswer(shard int, inj *fault.NetInjector) (fault.NetAction, error) {
	action, delay := fault.NetNone, time.Duration(0)
	if inj != nil {
		action, delay = inj.Next(fmt.Sprintf("shard%d->coord", shard))
	}
	switch action {
	case fault.NetReset:
		s.conn.Close()
		return action, errors.New("dist: injected connection reset on receive")
	case fault.NetDrop:
		return action, errors.New("dist: injected dropped response")
	case fault.NetTruncate:
		// Receive the real bytes, tear off the tail, and push the torn
		// message through the framed reader — the CRC/length layer must
		// reject it.
		raw, err := readRawFrame(s.r)
		if err != nil {
			return action, err
		}
		torn := raw[:len(raw)-len(raw)/4-1]
		if _, err := ReadFrame(bytes.NewReader(torn)); err != nil {
			return action, fmt.Errorf("dist: injected torn response rejected: %w", err)
		}
		return action, errors.New("dist: injected torn response escaped the CRC check")
	case fault.NetDuplicate:
		// Duplicate delivery of a response is benign: the extra copy
		// dies with the connection, which is not kept.
	case fault.NetDelay:
		time.Sleep(delay)
	}
	_, err := s.r.Peek(1)
	return action, err
}
