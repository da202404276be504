// Package wiredeadline_bad writes to connections and frame writers
// without ever arming a write deadline; it is analyzed as a wire package
// by the golden tests.
package wiredeadline_bad

import (
	"net"

	"smartexp3/internal/frame"
)

// Send writes a frame with no deadline anywhere in the function.
func Send(c net.Conn, p []byte) error {
	_, err := c.Write(p)
	return err
}

// Broadcast spawns writer goroutines; each closure is its own unit and
// arms nothing.
func Broadcast(conns []net.Conn, p []byte) {
	for _, c := range conns {
		go func(c net.Conn) {
			c.Write(p)
		}(c)
	}
}

// Flush pushes a frame through the frame writer, again with no
// deadline.
func Flush(fw *frame.Writer) error {
	return fw.WriteFrame(nil)
}
