package edge

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestChecksumFrameRoundTrip(t *testing.T) {
	req := &ComputeRequest{Block: 3, Epoch: 2, Masked: []float64{0.5, -1.25}}
	frame := buildFrame(t, frameCompute, 9, func(b []byte) []byte { return appendComputeRequest(b, req) })
	var buf []byte
	ftype, id, payload, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if ftype != frameCompute || id != 9 {
		t.Fatalf("frame (type %d, id %d), want (type %d, id 9)", ftype, id, frameCompute)
	}
	got, err := decodeComputeRequest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Block != req.Block || len(got.Masked) != 2 {
		t.Fatalf("decoded %+v, want %+v", got, req)
	}
}

// TestCorruptFrameTypedError: a frame corrupted on the wire fails with
// the typed ErrFrameChecksum instead of reaching a payload decoder as
// garbage.
func TestCorruptFrameTypedError(t *testing.T) {
	req := &ComputeRequest{Block: 1, Masked: []float64{1, 2, 3, 4}}
	frame := buildFrame(t, frameCompute, 5, func(b []byte) []byte { return appendComputeRequest(b, req) })

	// Flip one payload byte at a position that keeps header and length
	// intact, so only the checksum can catch it.
	for _, flip := range []int{frameHeaderLen, frameHeaderLen + 11, len(frame) - crcTrailerLen - 1} {
		corrupt := append([]byte(nil), frame...)
		corrupt[flip] ^= 0x40
		var buf []byte
		_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(corrupt)), &buf)
		if !errors.Is(err, ErrFrameChecksum) {
			t.Errorf("corrupt byte %d: err = %v, want ErrFrameChecksum", flip, err)
		}
	}

	// A corrupted trailer is caught the same way.
	corrupt := append([]byte(nil), frame...)
	corrupt[len(frame)-1] ^= 0x01
	var buf []byte
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(corrupt)), &buf); !errors.Is(err, ErrFrameChecksum) {
		t.Errorf("corrupt trailer: err = %v, want ErrFrameChecksum", err)
	}

	// A truncated trailer is an I/O error, not a silent success.
	short := frame[:len(frame)-2]
	if _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(short)), &buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated trailer err = %v, want io.ErrUnexpectedEOF", err)
	}
}
