package wire

import (
	"bytes"
	"math"
	"net/netip"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{},
		{0x00},
		[]byte("hello"),
		bytes.Repeat([]byte{0xC5}, 64), // marker-ish bytes inside a payload
		Marker[:],                      // a full marker inside a payload
		bytes.Repeat([]byte("x"), 1<<16),
	}
	var stream []byte
	for _, p := range payloads {
		stream = AppendFrame(stream, p)
	}
	r := NewReader(stream)
	for i, want := range payloads {
		got, ok := r.Next()
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
	if _, ok := r.Next(); ok {
		t.Fatal("phantom frame after the last payload")
	}
	if _, torn := r.Torn(); torn {
		t.Fatal("clean stream reported torn")
	}
	if w := r.Warnings(); len(w) != 0 {
		t.Fatalf("clean stream warned: %q", w)
	}
}

func TestReaderTornTail(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, []byte("first"))
	good := len(stream)
	stream = AppendFrame(stream, []byte("second-but-torn"))
	stream = stream[:good+len(stream[good:])/2]

	r := NewReader(stream)
	p, ok := r.Next()
	if !ok || string(p) != "first" {
		t.Fatalf("first frame = %q ok=%v", p, ok)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("torn frame surfaced as a payload")
	}
	truncateTo, torn := r.Torn()
	if !torn {
		t.Fatal("torn tail not reported")
	}
	if truncateTo != int64(good) {
		t.Fatalf("truncateTo = %d, want %d (last good frame boundary)", truncateTo, good)
	}
}

func TestReaderInteriorCorruptionResyncs(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, []byte("first"))
	mid := len(stream)
	stream = AppendFrame(stream, []byte("second"))
	end := len(stream)
	stream = AppendFrame(stream, []byte("third"))
	stream[end-1] ^= 0xFF // corrupt "second"'s payload: CRC must reject it

	r := NewReader(stream)
	var got []string
	for {
		p, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, string(p))
	}
	if len(got) != 2 || got[0] != "first" || got[1] != "third" {
		t.Fatalf("payloads = %q, want [first third]", got)
	}
	if _, torn := r.Torn(); torn {
		t.Fatal("interior corruption misreported as torn tail")
	}
	if len(r.Warnings()) == 0 {
		t.Fatal("no warning for the skipped frame")
	}
	_ = mid
}

// adversarialResyncStream builds the nastiest interior-corruption shape:
// frame A, then a corrupted frame whose own payload embeds a COMPLETE
// valid frame (marker, length, CRC all good), then frame C. When the
// outer frame's CRC rejects it, resync scans forward and lands on the
// embedded frame's marker — a valid frame that was never appended at the
// top level. The reader cannot distinguish it from a real record (by
// construction it is bit-for-bit one), so the contract is: surface it,
// keep going, and still recover every genuine frame after the damage
// with no torn-tail misreport.
func adversarialResyncStream() (stream []byte, inner []byte) {
	inner = []byte("embedded-frame-payload")
	var outerPayload []byte
	outerPayload = append(outerPayload, []byte("garbage-before-")...)
	outerPayload = AppendFrame(outerPayload, inner)
	outerPayload = append(outerPayload, []byte("-garbage-after")...)

	stream = AppendFrame(nil, []byte("first"))
	corruptAt := len(stream) + len(Marker) // the outer frame's length byte
	stream = AppendFrame(stream, outerPayload)
	stream[corruptAt] ^= 0xFF // outer frame now unreadable; inner survives
	stream = AppendFrame(stream, []byte("third"))
	return stream, inner
}

func TestReaderAdversarialResync(t *testing.T) {
	stream, inner := adversarialResyncStream()
	r := NewReader(stream)
	var got []string
	for {
		p, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, string(p))
	}
	want := []string{"first", string(inner), "third"}
	if len(got) != len(want) {
		t.Fatalf("payloads = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("payload %d = %q, want %q (full: %q)", i, got[i], want[i], got)
		}
	}
	if _, torn := r.Torn(); torn {
		t.Fatal("adversarial interior corruption misreported as torn tail")
	}
	if len(r.Warnings()) == 0 {
		t.Fatal("no warnings for the corrupted region")
	}
}

func TestReaderGarbagePrefix(t *testing.T) {
	stream := []byte("not a frame at all ")
	stream = AppendFrame(stream, []byte("payload"))
	r := NewReader(stream)
	p, ok := r.Next()
	if !ok || string(p) != "payload" {
		t.Fatalf("payload after garbage = %q ok=%v", p, ok)
	}
	if len(r.Warnings()) != 1 {
		t.Fatalf("warnings = %q, want one for the garbage prefix", r.Warnings())
	}
}

func TestFramed(t *testing.T) {
	for _, b := range [][]byte{[]byte(`{"key":"x"}`), []byte("\n"), []byte("c")} {
		if Framed(b) {
			t.Errorf("%q taken for a frame stream", b)
		}
	}
	frame := AppendFrame(nil, []byte("x"))
	for _, b := range [][]byte{nil, Marker[:1], Marker[:3], frame, append(Marker[:2:2], frame...)} {
		if !Framed(b) {
			t.Errorf("%q (empty, a frame, or a torn marker prefix) refused", b)
		}
	}
}

func TestPrimitivesRoundTrip(t *testing.T) {
	addr4 := netip.MustParseAddr("192.0.2.7")
	addr6 := netip.MustParseAddr("2001:db8::1")
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, -1)
	b = AppendVarint(b, math.MinInt64)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendFloat64(b, 3.5)
	b = AppendFloat64(b, math.Inf(-1))
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBytes(b, nil)
	b = AppendString(b, "héllo")
	b = AppendString(b, "")
	b = AppendAddr(b, addr4)
	b = AppendAddr(b, addr6)
	b = AppendAddr(b, netip.Addr{})

	d := NewDec(b)
	if v := d.Uvarint(); v != 0 {
		t.Errorf("uvarint = %d", v)
	}
	if v := d.Uvarint(); v != math.MaxUint64 {
		t.Errorf("uvarint max = %d", v)
	}
	if v := d.Varint(); v != -1 {
		t.Errorf("varint = %d", v)
	}
	if v := d.Varint(); v != math.MinInt64 {
		t.Errorf("varint min = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("bools corrupted")
	}
	if v := d.Float64(); v != 3.5 {
		t.Errorf("float = %v", v)
	}
	if v := d.Float64(); !math.IsInf(v, -1) {
		t.Errorf("float -inf = %v", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Errorf("bytes = %v", v)
	}
	if v := d.Bytes(); v != nil {
		t.Errorf("empty bytes = %v, want nil", v)
	}
	if v := d.String(); v != "héllo" {
		t.Errorf("string = %q", v)
	}
	if v := d.String(); v != "" {
		t.Errorf("empty string = %q", v)
	}
	if v := d.Addr(); v != addr4 {
		t.Errorf("addr4 = %v", v)
	}
	if v := d.Addr(); v != addr6 {
		t.Errorf("addr6 = %v", v)
	}
	if v := d.Addr(); v.IsValid() {
		t.Errorf("invalid addr = %v", v)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("round trip erred: %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left over", d.Len())
	}
}

func TestDecStickyError(t *testing.T) {
	d := NewDec([]byte{0x02, 'a'}) // string of length 2 with 1 byte present
	if s := d.String(); s != "" {
		t.Errorf("truncated string = %q, want empty", s)
	}
	if d.Err() == nil {
		t.Fatal("truncated string did not error")
	}
	// Every later read is a zero value, not a panic or stale data.
	if d.Byte() != 0 || d.Uvarint() != 0 || d.Varint() != 0 || d.Bool() ||
		d.Float64() != 0 || d.Bytes() != nil || d.String() != "" || d.Addr().IsValid() {
		t.Error("reads after a sticky error returned non-zero values")
	}
}

func TestDecCountRejectsOverlongCounts(t *testing.T) {
	b := AppendUvarint(nil, 1<<40) // count far beyond remaining bytes
	d := NewDec(b)
	if n := d.Count(); n != 0 {
		t.Errorf("overlong count = %d, want 0", n)
	}
	if d.Err() == nil {
		t.Fatal("overlong count accepted — decoder would silently desync")
	}
}

func TestDecBoolRejectsNonBoolean(t *testing.T) {
	d := NewDec([]byte{7})
	if d.Bool() {
		t.Error("byte 7 decoded as true")
	}
	if d.Err() == nil {
		t.Fatal("non-0/1 bool byte accepted")
	}
}

// FuzzFrameReader hammers the frame reader with arbitrary bytes: it must
// never panic, every payload it returns must re-frame to a stream that
// yields the same payloads with no warnings, and repairing a torn tail by
// truncating to the reported boundary must leave a clean stream.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("jsonl garbage\n"))
	f.Add(AppendFrame(nil, []byte("one")))
	f.Add(AppendFrame(AppendFrame(nil, []byte("a")), []byte("b")))
	torn := AppendFrame(nil, []byte("good"))
	f.Add(append(torn[:len(torn):len(torn)], AppendFrame(nil, bytes.Repeat([]byte("x"), 100))[:20]...))
	f.Add(Marker[:])
	// Adversarial resync regression: a corrupted region that itself
	// contains a valid embedded frame (also pinned under testdata/fuzz).
	adversarial, _ := adversarialResyncStream()
	f.Add(adversarial)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		var payloads [][]byte
		for {
			p, ok := r.Next()
			if !ok {
				break
			}
			payloads = append(payloads, append([]byte(nil), p...))
		}
		truncateTo, torn := r.Torn()
		if truncateTo < 0 || truncateTo > int64(len(data)) {
			t.Fatalf("truncateTo %d out of range [0,%d]", truncateTo, len(data))
		}

		// Re-encode what was read: the round trip must be clean.
		var clean []byte
		for _, p := range payloads {
			clean = AppendFrame(clean, p)
		}
		r2 := NewReader(clean)
		for i, want := range payloads {
			got, ok := r2.Next()
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("re-framed payload %d = %q ok=%v, want %q", i, got, ok, want)
			}
		}
		if w := r2.Warnings(); len(w) != 0 {
			t.Fatalf("re-framed stream warned: %q", w)
		}

		// The torn-tail repair contract: truncating to the reported
		// boundary and appending a fresh frame yields every pre-tear
		// payload plus the new one.
		if torn {
			repaired := append(append([]byte(nil), data[:truncateTo]...), AppendFrame(nil, []byte("appended"))...)
			r3 := NewReader(repaired)
			n := 0
			last := ""
			for {
				p, ok := r3.Next()
				if !ok {
					break
				}
				n++
				last = string(p)
			}
			if last != "appended" {
				t.Fatalf("append after repair lost the new frame (read %d frames, last %q)", n, last)
			}
			if _, stillTorn := r3.Torn(); stillTorn {
				t.Fatal("repaired stream still torn")
			}
		}
	})
}
