package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// RFC 1831 §10 record marking: each RPC message sent over a byte stream
// is carried as one or more fragments, each prefixed by a 4-byte header
// whose top bit marks the final fragment and whose low 31 bits give the
// fragment length. This is the framing layer between TCP and RPC — the
// live transport twin of the offline record scanner in internal/rpc.

// MaxRecordLen bounds a reassembled record (and any single fragment),
// protecting the receiver from hostile or corrupt length prefixes.
const MaxRecordLen = 1 << 24

// RecordConn frames RPC messages over a byte stream using record
// marking. Reads and writes are independently safe to use from one
// goroutine each (the usual reader-loop/writer split); concurrent
// writers must serialize externally. The read and write sides share no
// scratch state: each has its own header buffer.
type RecordConn struct {
	r    *bufio.Reader
	w    *bufio.Writer
	rhdr [4]byte
	whdr [4]byte
}

// NewRecordConn wraps a stream (typically a net.Conn) in record framing.
func NewRecordConn(rw io.ReadWriter) *RecordConn {
	return &RecordConn{r: bufio.NewReader(rw), w: bufio.NewWriter(rw)}
}

// WriteRecord sends msg as a single final fragment and flushes.
func (c *RecordConn) WriteRecord(msg []byte) error {
	if len(msg) > MaxRecordLen {
		return fmt.Errorf("wire: record of %d bytes exceeds limit", len(msg))
	}
	binary.BigEndian.PutUint32(c.whdr[:], uint32(len(msg))|0x80000000)
	if _, err := c.w.Write(c.whdr[:]); err != nil {
		return err
	}
	if _, err := c.w.Write(msg); err != nil {
		return err
	}
	return c.w.Flush()
}

// ReadRecord reads one complete record, reassembling fragments. The
// returned slice is freshly allocated and owned by the caller.
//
// A stream that ends exactly on a record boundary returns io.EOF. A
// stream cut anywhere inside a record — mid-header, mid-body, or
// between the fragments of a multi-fragment record — returns
// io.ErrUnexpectedEOF, so connection loss never reads as a clean end
// of stream with a silently dropped tail.
func (c *RecordConn) ReadRecord() ([]byte, error) {
	var msg []byte
	started := false
	for {
		if _, err := io.ReadFull(c.r, c.rhdr[:]); err != nil {
			if started && err == io.EOF {
				// Non-final fragments were consumed; the record is
				// truncated even though the header read saw no bytes.
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		started = true
		hdr := binary.BigEndian.Uint32(c.rhdr[:])
		last := hdr&0x80000000 != 0
		n := int(hdr & 0x7FFFFFFF)
		if n > MaxRecordLen || len(msg)+n > MaxRecordLen {
			return nil, fmt.Errorf("wire: record fragment of %d bytes exceeds limit", n)
		}
		off := len(msg)
		msg = append(msg, make([]byte, n)...)
		if _, err := io.ReadFull(c.r, msg[off:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if last {
			return msg, nil
		}
	}
}
