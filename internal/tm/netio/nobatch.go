//go:build !(linux && (amd64 || arm64))

package netio

import (
	"errors"
	"net"
)

const batchAvailable = false

func newBatchConn(u *net.UDPConn, batch int) (Conn, error) {
	return nil, errors.New("netio: batched I/O unavailable on this platform")
}
