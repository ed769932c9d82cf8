package wire

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/rpc"
)

// rwBuffer joins separate read and write buffers into an io.ReadWriter,
// standing in for the two directions of a socket.
type rwBuffer struct {
	r *bytes.Buffer
	w *bytes.Buffer
}

func (b *rwBuffer) Read(p []byte) (int, error)  { return b.r.Read(p) }
func (b *rwBuffer) Write(p []byte) (int, error) { return b.w.Write(p) }

func TestRecordConnRoundTrip(t *testing.T) {
	var wireBytes bytes.Buffer
	send := NewRecordConn(&rwBuffer{r: &bytes.Buffer{}, w: &wireBytes})
	msgs := [][]byte{
		{},
		[]byte("x"),
		bytes.Repeat([]byte("nfs"), 5000),
	}
	for _, m := range msgs {
		if err := send.WriteRecord(m); err != nil {
			t.Fatal(err)
		}
	}
	recv := NewRecordConn(&rwBuffer{r: &wireBytes, w: &bytes.Buffer{}})
	for i, want := range msgs {
		got, err := recv.ReadRecord()
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("msg %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := recv.ReadRecord(); err != io.EOF {
		t.Fatalf("expected EOF after last record, got %v", err)
	}
}

// TestRecordConnFragments checks interoperability with the offline
// record-marking encoder in internal/rpc: multi-fragment records
// reassemble to the original message.
func TestRecordConnFragments(t *testing.T) {
	msg := bytes.Repeat([]byte("fragmented rpc message "), 40)
	stream := rpc.MarkRecordFragmented(msg, 7)
	stream = append(stream, rpc.MarkRecord([]byte("tail"))...)
	rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(stream), w: &bytes.Buffer{}})
	got, err := rc.ReadRecord()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("reassembled %d bytes, want %d", len(got), len(msg))
	}
	tail, err := rc.ReadRecord()
	if err != nil || string(tail) != "tail" {
		t.Fatalf("tail record: %q err %v", tail, err)
	}
}

// TestRecordConnSymmetry: what WriteRecord emits, rpc.RecordScanner
// parses — the live and offline framers agree byte for byte.
func TestRecordConnSymmetry(t *testing.T) {
	var wireBytes bytes.Buffer
	send := NewRecordConn(&rwBuffer{r: &bytes.Buffer{}, w: &wireBytes})
	msg := []byte("one rpc message")
	if err := send.WriteRecord(msg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireBytes.Bytes(), rpc.MarkRecord(msg)) {
		t.Fatal("WriteRecord framing differs from rpc.MarkRecord")
	}
	var sc rpc.RecordScanner
	sc.Append(wireBytes.Bytes())
	got, err := sc.Next()
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("scanner got %q err %v", got, err)
	}
}

// TestRecordConnTruncation pins the EOF taxonomy: a stream ending on a
// record boundary is a clean io.EOF, but a cut anywhere inside a record
// — mid-header, mid-body, or between fragments — is io.ErrUnexpectedEOF.
// A coordinator relies on this to tell an orderly shutdown from a
// worker that died mid-stream.
func TestRecordConnTruncation(t *testing.T) {
	full := rpc.MarkRecordFragmented(bytes.Repeat([]byte("payload "), 64), 33)
	cases := []struct {
		name string
		cut  int
		want error
	}{
		{"empty stream", 0, io.EOF},
		{"partial first header", 2, io.ErrUnexpectedEOF},
		{"partial fragment body", 4 + 10, io.ErrUnexpectedEOF},
		{"clean cut between fragments", 4 + 33, io.ErrUnexpectedEOF},
		{"partial second header", 4 + 33 + 2, io.ErrUnexpectedEOF},
		{"complete record", len(full), nil},
	}
	for _, tc := range cases {
		rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(full[:tc.cut]), w: &bytes.Buffer{}})
		_, err := rc.ReadRecord()
		if err != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == nil {
			// After a complete record the boundary EOF must stay clean.
			if _, err := rc.ReadRecord(); err != io.EOF {
				t.Errorf("%s: post-record read: got %v, want io.EOF", tc.name, err)
			}
		}
	}
}

func TestRecordConnLimits(t *testing.T) {
	// A hostile length prefix must error, not allocate 2GB.
	evil := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	rc := NewRecordConn(&rwBuffer{r: bytes.NewBuffer(evil), w: &bytes.Buffer{}})
	if _, err := rc.ReadRecord(); err == nil {
		t.Fatal("oversized fragment accepted")
	}
	// Truncated fragment body → ErrUnexpectedEOF, not silent EOF.
	trunc := rpc.MarkRecord([]byte("full message"))[:8]
	rc = NewRecordConn(&rwBuffer{r: bytes.NewBuffer(trunc), w: &bytes.Buffer{}})
	if _, err := rc.ReadRecord(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated record: got %v, want ErrUnexpectedEOF", err)
	}
	// Oversized write rejected.
	send := NewRecordConn(&rwBuffer{r: &bytes.Buffer{}, w: &bytes.Buffer{}})
	if err := send.WriteRecord(make([]byte, MaxRecordLen+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
}

// TestRecordConnConcurrentReadWrite drives one reader goroutine and one
// writer goroutine on the same RecordConn, as the pipelined client, the
// server and the dispatch peers do, with many records in flight over a
// net.Pipe to an echo peer that also reads and writes concurrently.
// Shared scratch state between ReadRecord and WriteRecord shows up here
// as a -race report or as a desynchronized stream.
func TestRecordConnConcurrentReadWrite(t *testing.T) {
	const n = 64
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	deadline := time.Now().Add(20 * time.Second)
	near.SetDeadline(deadline)
	far.SetDeadline(deadline)

	// Echo peer: its reader hands records to its writer through a
	// buffered channel, so up to n records are in flight each way.
	peer := NewRecordConn(far)
	echo := make(chan []byte, n)
	go func() {
		defer close(echo)
		for {
			msg, err := peer.ReadRecord()
			if err != nil {
				return
			}
			echo <- msg
		}
	}()
	go func() {
		for msg := range echo {
			if peer.WriteRecord(msg) != nil {
				return
			}
		}
	}()

	rc := NewRecordConn(near)
	msgOf := func(i int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("record %d;", i)), 1+i%7) }
	werr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := rc.WriteRecord(msgOf(i)); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	for i := 0; i < n; i++ {
		got, err := rc.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if want := msgOf(i); !bytes.Equal(got, want) {
			t.Fatalf("record %d: got %q, want %q", i, got, want)
		}
	}
	if err := <-werr; err != nil {
		t.Fatalf("writer: %v", err)
	}
}
