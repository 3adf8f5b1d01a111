package bolt

import (
	"bytes"
	"math/rand"
	"testing"

	"aion/internal/cypher"
	"aion/internal/model"
)

func TestScalarRoundTrip(t *testing.T) {
	vals := []model.Value{
		model.NullValue(),
		model.IntValue(-42),
		model.IntValue(1 << 60),
		model.FloatValue(3.14159),
		model.BoolValue(true),
		model.BoolValue(false),
		model.StringValue(""),
		model.StringValue("hello bolt"),
	}
	for _, v := range vals {
		b := appendScalar(nil, v)
		got, rest, err := readScalar(b)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%v: %v rest=%d", v, err, len(rest))
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestValRoundTripEntities(t *testing.T) {
	n := &model.Node{ID: 7, Labels: []string{"A", "B"},
		Props: model.Properties{"k": model.IntValue(1)},
		Valid: model.Interval{Start: 3, End: model.TSInfinity}}
	b := appendVal(nil, cypher.NodeVal(n))
	got, rest, err := readVal(b)
	if err != nil || len(rest) != 0 {
		t.Fatal(err)
	}
	if got.Node == nil || got.Node.ID != 7 || !got.Node.HasLabel("B") ||
		got.Node.Props["k"].Int() != 1 || got.Node.Valid.End != model.TSInfinity {
		t.Errorf("node round trip: %+v", got.Node)
	}

	r := &model.Rel{ID: 9, Src: 1, Tgt: 2, Label: "R",
		Props: model.Properties{"w": model.FloatValue(0.5)},
		Valid: model.Interval{Start: 5, End: 9}}
	b = appendVal(nil, cypher.RelVal(r))
	got, _, err = readVal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rel == nil || got.Rel.Src != 1 || got.Rel.Props["w"].Float() != 0.5 ||
		got.Rel.Valid.End != 9 {
		t.Errorf("rel round trip: %+v", got.Rel)
	}
}

func TestReadValRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		b := make([]byte, rng.Intn(30))
		rng.Read(b)
		_, _, _ = readVal(b)
		_, _, _ = readScalar(b)
		_, _, _ = readProps(b)
	}
}

func TestFrameRoundTripAndLimits(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("frame body")
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: %q %v", got, err)
	}
	// Oversized frame header must be rejected without allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Error("oversized frame accepted")
	}
	// Truncated body.
	var short bytes.Buffer
	WriteFrame(&short, payload)
	trunc := short.Bytes()[:short.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestDecodeRunMalformed(t *testing.T) {
	if _, _, _, err := decodeRun(nil); err == nil {
		t.Error("empty RUN must fail")
	}
	// Valid query string, bad param count.
	b := appendString(nil, "MATCH (n) RETURN n")
	if _, _, _, err := decodeRun(b); err == nil {
		t.Error("missing param count must fail")
	}
}
