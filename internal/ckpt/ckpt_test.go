package ckpt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sample() *State {
	return &State{
		Step:     1234,
		Batch:    512,
		Params:   []float32{1, 2, 3, 4},
		Momentum: []float32{0.1, 0.2, 0.3, 0.4},
	}
}

func TestRoundTrip(t *testing.T) {
	s := sample()
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Step != s.Step || back.Batch != s.Batch {
		t.Errorf("metadata changed: %+v", back)
	}
	for i := range s.Params {
		if back.Params[i] != s.Params[i] || back.Momentum[i] != s.Momentum[i] {
			t.Fatalf("tensor %d changed", i)
		}
	}
}

func TestWriteReadStream(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadStates(t *testing.T) {
	cases := []*State{
		{Params: nil},
		{Params: []float32{1}, Momentum: []float32{1, 2}},
		{Params: []float32{1}, Step: -1},
		{Params: []float32{1}, Batch: -2},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
		if _, err := Encode(s); err == nil {
			t.Errorf("case %d encoded", i)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a gob")); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty blob decoded")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(step int64, batch uint16, params []float32) bool {
		if len(params) == 0 {
			return true
		}
		if step < 0 {
			step = -step
		}
		s := &State{Step: step, Batch: int(batch), Params: params}
		blob, err := Encode(s)
		if err != nil {
			return false
		}
		back, err := Decode(blob)
		if err != nil {
			return false
		}
		if back.Step != s.Step || back.Batch != s.Batch || len(back.Params) != len(params) {
			return false
		}
		for i := range params {
			// NaN never round-trips as equal; normalize the comparison.
			if back.Params[i] != params[i] && !(params[i] != params[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
