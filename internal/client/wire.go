package client

import "github.com/datamarket/shield/internal/wire"

// ErrConnClosed is the wire transport's dead-connection sentinel: every
// call on a wire client whose stream has failed returns an error
// wrapping it. Re-exported so client users never import the transport
// package to branch on it.
var ErrConnClosed = wire.ErrConnClosed

// A *wire.Conn is the binary-protocol Client. It serializes round
// trips; open several for connection-level parallelism.
var _ Client = (*wire.Conn)(nil)

// DialWire returns a Client speaking the wire protocol to addr
// ("host:port").
func DialWire(addr string) (Client, error) {
	conn, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	return conn, nil
}
