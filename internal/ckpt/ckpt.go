// Package ckpt implements checkpoint-based job state persistence — the
// conventional mechanism ONES's elastic scaling replaces. A checkpoint
// captures the full training state (parameters, optimizer momentum, step
// counter, batch size) with gob; restoring rebuilds it from scratch. The
// Figure 16 overhead comparison pits this save/stop/restart/reload path
// against the checkpoint-free protocol in internal/runtime.
package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
)

// State is the serializable training state of one job.
type State struct {
	Step     int64
	Batch    int
	Params   []float32
	Momentum []float32
}

// Validate reports structural problems.
func (s *State) Validate() error {
	if len(s.Params) == 0 {
		return fmt.Errorf("ckpt: empty parameter tensor")
	}
	if len(s.Momentum) != 0 && len(s.Momentum) != len(s.Params) {
		return fmt.Errorf("ckpt: momentum length %d != params %d", len(s.Momentum), len(s.Params))
	}
	if s.Batch < 0 || s.Step < 0 {
		return fmt.Errorf("ckpt: negative step/batch")
	}
	return nil
}

// Write serializes the state to w.
func Write(w io.Writer, s *State) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(s); err != nil {
		return fmt.Errorf("ckpt: encoding: %w", err)
	}
	return nil
}

// Read deserializes a state from r.
func Read(r io.Reader) (*State, error) {
	var s State
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("ckpt: decoding: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode serializes to a fresh byte buffer.
func Encode(s *State) ([]byte, error) {
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode deserializes from bytes.
func Decode(data []byte) (*State, error) { return Read(bytes.NewReader(data)) }
