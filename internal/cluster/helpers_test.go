package cluster

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"repro/internal/obslog"
)

// tWriter routes obslog lines into the test log.
type tWriter struct{ t *testing.T }

func (w tWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

// testLogger is silent by default and verbose under -v, so membership
// churn in the kill tests is debuggable without polluting normal runs.
func testLogger(t *testing.T) obslog.Logger {
	if testing.Verbose() {
		return obslog.New(tWriter{t: t}, obslog.DebugLevel)
	}
	return obslog.Nop()
}

// joinByHand runs the worker side of the join handshake on conn — hello,
// read the welcome, ready echoing its epoch — for tests that then play a
// misbehaving worker on the raw connection.
func joinByHand(conn net.Conn, id string) error {
	if err := writeMessage(conn, &Message{Type: MsgHello, Worker: id}); err != nil {
		return err
	}
	welcome, err := readFrame(conn)
	if err != nil {
		return err
	}
	if welcome.Type != MsgWelcome {
		return fmt.Errorf("got %q, want welcome", welcome.Type)
	}
	return writeMessage(conn, &Message{Type: MsgReady, Worker: id, Epoch: welcome.Epoch})
}

func writeMessage(conn net.Conn, m *Message) error {
	frame, err := encodeFrame(m)
	if err != nil {
		return err
	}
	_, err = conn.Write(frame)
	return err
}
