package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func sample() *Snapshot {
	s := New("cafebabecafebabe", 12345)
	w := s.Section("alpha")
	w.Uint64(42)
	w.String("hello")
	w.Bool(true)
	w.Float64(3.5)
	w = s.Section("beta")
	w.Bytes([]byte{1, 2, 3})
	w.Int32(-7)
	return s
}

func TestContainerRoundTrip(t *testing.T) {
	b, err := sample().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.ConfigHash != "cafebabecafebabe" || s.Clock != 12345 {
		t.Fatalf("header: %q %d", s.ConfigHash, s.Clock)
	}
	r, err := s.Open("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if v := r.Uint64(); v != 42 {
		t.Errorf("uint64 = %d", v)
	}
	if v := r.String(); v != "hello" {
		t.Errorf("string = %q", v)
	}
	if !r.Bool() {
		t.Error("bool = false")
	}
	if v := r.Float64(); v != 3.5 {
		t.Errorf("float = %v", v)
	}
	if err := r.Close(); err != nil {
		t.Errorf("alpha not fully consumed: %v", err)
	}
	r, err = s.Open("beta")
	if err != nil {
		t.Fatal(err)
	}
	if v := r.ByteSlice(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("bytes = %v", v)
	}
	if v := r.Int32(); v != -7 {
		t.Errorf("int32 = %d", v)
	}
	if err := r.Close(); err != nil {
		t.Error(err)
	}

	// Encoding is deterministic: same content, same bytes.
	b2, _ := sample().Bytes()
	if !bytes.Equal(b, b2) {
		t.Error("encoding is not deterministic")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b, _ := sample().Bytes()

	var ce *CorruptError
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"bit flip", func(b []byte) []byte { b[len(b)/2] ^= 1; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-5] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	} {
		mangled := tc.mangle(append([]byte(nil), b...))
		if _, err := DecodeBytes(mangled); !errors.As(err, &ce) {
			t.Errorf("%s: got %v, want *CorruptError", tc.name, err)
		}
	}
}

func TestDecodeRejectsVersionSkew(t *testing.T) {
	b, _ := sample().Bytes()
	// Patch the version field (right after the magic), then fix the CRC
	// so only the version differs.
	binary.LittleEndian.PutUint16(b[len(magic):], FormatVersion+9)
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crcOf(body))
	var ve *VersionError
	_, err := DecodeBytes(b)
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	}
	if ve.Got != FormatVersion+9 || ve.Want != FormatVersion {
		t.Errorf("version error %+v", ve)
	}
}

func TestOpenMissingSection(t *testing.T) {
	var ce *CorruptError
	if _, err := sample().Open("gamma"); !errors.As(err, &ce) {
		t.Errorf("missing section: got %v, want *CorruptError", err)
	}
}

func TestReaderCloseCatchesLeftoverBytes(t *testing.T) {
	s := sample()
	r, _ := s.Open("alpha")
	r.Uint64() // consume only part
	if err := r.Close(); err == nil {
		t.Error("Close accepted unread bytes")
	}
}

func TestCheckConfigHash(t *testing.T) {
	s := sample()
	if err := s.CheckConfigHash("cafebabecafebabe"); err != nil {
		t.Errorf("matching hash rejected: %v", err)
	}
	var mm *MismatchError
	if err := s.CheckConfigHash("0000000000000000"); !errors.As(err, &mm) {
		t.Errorf("wrong hash: got %v, want *MismatchError", err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	want, err := sample().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Bytes(); err != nil || s.Clock != 12345 || !bytes.Equal(got, want) {
		t.Errorf("reloaded snapshot: clock=%d, re-encodes identically %v (%v)", s.Clock, bytes.Equal(got, want), err)
	}
	if !s.Has("alpha") || s.Has("nope") {
		t.Error("Has misreports sections")
	}
	if desc := s.Describe(); desc == "" {
		t.Error("empty Describe")
	}
}

// crcOf mirrors the encoder's checksum for test patching.
func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
