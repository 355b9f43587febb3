package radio

import "repro/internal/graph"

// Delivery records one successful reception.
type Delivery struct {
	To, From graph.NodeID
}

// RoundRecord is the trace of one executed round.
//
// Transmitters and Deliveries are backed by engine-owned scratch that is
// rewritten every round: they are valid only for the duration of the Record
// call, and implementations that retain them (MemRecorder) must copy.
// Streaming consumers (TxCountRecorder) read them allocation-free.
type RoundRecord struct {
	Round        int
	Transmitters []graph.NodeID
	Deliveries   []Delivery
	// SelectorKind summarizes the adversary's choice: "all", "none", or
	// "partial".
	SelectorKind string
	// Selector is the round's actual edge selection, retained so traces can
	// be replayed and validated against ReferenceDeliveries.
	Selector graph.EdgeSelector
}

// Recorder receives per-round trace records. Recording is optional; the
// engine skips all trace work when Config.Recorder is nil.
type Recorder interface {
	Record(rec RoundRecord)
}

// MemRecorder stores every round record in memory.
type MemRecorder struct {
	Rounds []RoundRecord
}

// Record implements Recorder, copying the engine-owned slices so the stored
// records stay valid after the engine moves to the next round.
func (m *MemRecorder) Record(rec RoundRecord) {
	rec.Transmitters = append([]graph.NodeID(nil), rec.Transmitters...)
	rec.Deliveries = append([]Delivery(nil), rec.Deliveries...)
	m.Rounds = append(m.Rounds, rec)
}

// TransmissionsIn counts transmissions in rounds [from, to).
func (m *MemRecorder) TransmissionsIn(from, to int) int {
	total := 0
	for _, r := range m.Rounds {
		if r.Round >= from && r.Round < to {
			total += len(r.Transmitters)
		}
	}
	return total
}

// TxCountRecorder records only the per-round transmitter counts: what a
// sampling adversary labels rounds from, without retaining full traces.
type TxCountRecorder struct {
	Counts []int
}

// Record implements Recorder.
func (t *TxCountRecorder) Record(rec RoundRecord) {
	t.Counts = append(t.Counts, len(rec.Transmitters))
}

func selectorKind(sel graph.EdgeSelector) string {
	switch {
	case sel.All():
		return "all"
	case sel.None():
		return "none"
	default:
		return "partial"
	}
}
