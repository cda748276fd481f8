package bgp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Speaker is a minimal BGP-4 speaker over a single TCP connection. It
// performs the OPEN exchange, then runs keepalive and update processing
// until the connection closes or Close is called. painterd uses Speakers
// to install advertisement configurations at PoP route servers; the
// Fig. 10 harness uses them to observe withdrawal/convergence churn.
//
// The state machine is intentionally simplified relative to RFC 4271:
// Idle → OpenSent → Established, with no Connect/Active retry logic
// (callers own dialing/retrying).
type Speaker struct {
	conn net.Conn
	bw   *bufio.Writer

	localAS  uint16
	bgpID    uint32
	holdTime time.Duration

	// OnUpdate is invoked for every received UPDATE. Set before Run.
	OnUpdate func(Update)

	mu       sync.Mutex
	writeErr error
	closed   bool

	// PeerOpen is the OPEN received from the peer, valid after Handshake.
	PeerOpen Open
}

// NewSpeaker wraps an established TCP connection.
func NewSpeaker(conn net.Conn, localAS uint16, bgpID uint32, holdTime time.Duration) *Speaker {
	return &Speaker{
		conn:     conn,
		bw:       bufio.NewWriter(conn),
		localAS:  localAS,
		bgpID:    bgpID,
		holdTime: holdTime,
	}
}

// Handshake exchanges OPEN messages and the initial KEEPALIVEs. OPENs
// are exchanged simultaneously (both sides send while reading), matching
// BGP collision behaviour and avoiding deadlock on unbuffered transports.
func (s *Speaker) Handshake() error {
	open := Open{Version: 4, AS: s.localAS, HoldTime: uint16(s.holdTime / time.Second), BGPID: s.bgpID}
	sendErr := make(chan error, 1)
	go func() {
		if err := s.send(open.Marshal()); err != nil {
			sendErr <- err
			return
		}
		sendErr <- s.send(keepalive())
	}()

	h, body, err := s.readMessage()
	if err != nil {
		return fmt.Errorf("bgp: read OPEN: %w", err)
	}
	if h.Type != MsgOpen {
		return fmt.Errorf("bgp: expected OPEN, got %v", h.Type)
	}
	peer, err := parseOpen(body)
	if err != nil {
		return err
	}
	s.PeerOpen = peer
	h, _, err = s.readMessage()
	if err != nil {
		return fmt.Errorf("bgp: read initial KEEPALIVE: %w", err)
	}
	if h.Type != MsgKeepalive {
		return fmt.Errorf("bgp: expected KEEPALIVE, got %v", h.Type)
	}
	if err := <-sendErr; err != nil {
		return fmt.Errorf("bgp: send OPEN/KEEPALIVE: %w", err)
	}
	return nil
}

// Run processes incoming messages until the connection closes. It sends
// keepalives at one third of the hold time. Run returns nil on a clean
// remote close or local Close.
func (s *Speaker) Run() error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		interval := s.holdTime / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if err := s.send(keepalive()); err != nil {
					return
				}
			}
		}
	}()

	for {
		if s.holdTime > 0 {
			_ = s.conn.SetReadDeadline(time.Now().Add(s.holdTime))
		}
		h, body, err := s.readMessage()
		if err != nil {
			if errors.Is(err, io.EOF) || s.isClosed() {
				return nil
			}
			return err
		}
		switch h.Type {
		case MsgKeepalive:
		case MsgUpdate:
			u, err := ParseUpdate(body)
			if err != nil {
				return err
			}
			if s.OnUpdate != nil {
				s.OnUpdate(u)
			}
		case MsgNotification:
			n, _ := parseNotification(body)
			return fmt.Errorf("bgp: peer sent NOTIFICATION code=%d subcode=%d", n.Code, n.Subcode)
		default:
			return fmt.Errorf("bgp: unexpected message %v", h.Type)
		}
	}
}

// SendUpdate serializes and sends an UPDATE.
func (s *Speaker) SendUpdate(u Update) error {
	b, err := u.Marshal()
	if err != nil {
		return err
	}
	return s.send(b)
}

// Close sends a CEASE notification (best effort) and closes the
// connection.
func (s *Speaker) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Best-effort CEASE: bound the write so Close never blocks on a
	// peer that stopped reading.
	_ = s.conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
	_, _ = s.bw.Write(Notification{Code: NotifCease}.Marshal())
	_ = s.bw.Flush()
	s.mu.Unlock()
	return s.conn.Close()
}

func (s *Speaker) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Speaker) send(b []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.writeErr != nil {
		return s.writeErr
	}
	if s.closed {
		return net.ErrClosed
	}
	if _, err := s.bw.Write(b); err != nil {
		s.writeErr = err
		return err
	}
	if err := s.bw.Flush(); err != nil {
		s.writeErr = err
		return err
	}
	return nil
}

// readMessage reads one complete framed message.
func (s *Speaker) readMessage() (Header, []byte, error) {
	var hb [headerLen]byte
	if _, err := io.ReadFull(s.conn, hb[:]); err != nil {
		return Header{}, nil, err
	}
	h, err := parseHeader(hb[:])
	if err != nil {
		return Header{}, nil, err
	}
	body := make([]byte, int(h.Len)-headerLen)
	if _, err := io.ReadFull(s.conn, body); err != nil {
		return Header{}, nil, err
	}
	return h, body, nil
}
