package csi

import (
	"encoding/json"
	"fmt"
	"io"
)

// FileSeries is the portable JSON representation of a processed CSI series
// (written by cmd/rimsim, consumed by ReadSeries). It is the intended entry
// point for real measured CSI: convert your capture into this schema and
// the entire RIM pipeline runs on it unchanged.
type FileSeries struct {
	// Meta describes the recording.
	Meta FileMeta `json:"meta"`
	// Truth optionally carries ground-truth poses for evaluation.
	Truth []FileTruth `json:"truth,omitempty"`
	// CSI[slot][ant][tx] is the complex CFR as [re, im] pairs per tone.
	CSI [][][][][2]float64 `json:"csi"`
}

// FileMeta is the recording header.
type FileMeta struct {
	Motion  string  `json:"motion,omitempty"`
	Array   string  `json:"array,omitempty"`
	Rate    float64 `json:"rate_hz"`
	Speed   float64 `json:"speed_mps,omitempty"`
	Length  float64 `json:"length_m,omitempty"`
	APID    int     `json:"ap_id,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	NumAnts int     `json:"num_antennas"`
	NumTx   int     `json:"num_tx"`
	NumSub  int     `json:"num_subcarriers"`
}

// FileTruth is one ground-truth pose sample.
type FileTruth struct {
	T     float64 `json:"t"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Theta float64 `json:"theta"`
}

// ToFile converts a Series into its portable form. meta fields describing
// the recording (motion, array, ...) are taken from the argument; shape
// fields are filled from the series.
func (s *Series) ToFile(meta FileMeta) *FileSeries {
	meta.Rate = s.Rate
	meta.NumAnts = s.NumAnts
	meta.NumTx = s.NumTx
	meta.NumSub = s.NumSub
	ff := &FileSeries{Meta: meta}
	slots := s.NumSlots()
	ff.CSI = make([][][][][2]float64, slots)
	for t := 0; t < slots; t++ {
		ff.CSI[t] = make([][][][2]float64, s.NumAnts)
		for a := 0; a < s.NumAnts; a++ {
			ff.CSI[t][a] = make([][][2]float64, s.NumTx)
			for tx := 0; tx < s.NumTx; tx++ {
				v := s.H[a][tx][t]
				tones := make([][2]float64, len(v))
				for k, c := range v {
					tones[k] = [2]float64{real(c), imag(c)}
				}
				ff.CSI[t][a][tx] = tones
			}
		}
	}
	return ff
}

// ToSeries converts the portable form back into an analysis-ready Series.
// The header's shape is checked against every slot before anything is
// allocated, so a hostile header cannot size the Series beyond the CSI
// actually present in the file.
func (ff *FileSeries) ToSeries() (*Series, error) {
	if ff.Meta.Rate <= 0 {
		return nil, fmt.Errorf("csi: file meta rate must be positive")
	}
	slots := len(ff.CSI)
	if slots == 0 {
		return nil, fmt.Errorf("csi: file contains no CSI slots")
	}
	na, nt, ns := ff.Meta.NumAnts, ff.Meta.NumTx, ff.Meta.NumSub
	if na <= 0 || nt <= 0 || ns <= 0 {
		return nil, fmt.Errorf("csi: file shape (%d antennas, %d tx, %d tones) must be positive", na, nt, ns)
	}
	for t, slot := range ff.CSI {
		if len(slot) != na {
			return nil, fmt.Errorf("csi: slot %d has %d antennas, want %d", t, len(slot), na)
		}
		for a, ant := range slot {
			if len(ant) != nt {
				return nil, fmt.Errorf("csi: slot %d antenna %d has %d tx, want %d", t, a, len(ant), nt)
			}
			for tx, tones := range ant {
				if len(tones) != ns {
					return nil, fmt.Errorf("csi: slot %d antenna %d tx %d has %d tones, want %d",
						t, a, tx, len(tones), ns)
				}
			}
		}
	}
	s := &Series{
		Rate:    ff.Meta.Rate,
		NumAnts: na,
		NumTx:   nt,
		NumSub:  ns,
		H:       make([][][][]complex128, na),
		Missing: make([][]bool, na),
	}
	for a := 0; a < na; a++ {
		s.H[a] = make([][][]complex128, nt)
		s.Missing[a] = make([]bool, slots)
		for tx := 0; tx < nt; tx++ {
			s.H[a][tx] = make([][]complex128, slots)
			for t := 0; t < slots; t++ {
				v := make([]complex128, ns)
				for k, c := range ff.CSI[t][a][tx] {
					v[k] = complex(c[0], c[1])
				}
				s.H[a][tx][t] = v
			}
		}
	}
	return s, nil
}

// WriteSeries encodes the series (with recording meta) as JSON.
func WriteSeries(w io.Writer, s *Series, meta FileMeta, truth []FileTruth) error {
	ff := s.ToFile(meta)
	ff.Truth = truth
	return json.NewEncoder(w).Encode(ff)
}

// ReadSeries decodes a JSON CSI recording into a Series (plus the file
// envelope with meta and optional ground truth).
func ReadSeries(r io.Reader) (*Series, *FileSeries, error) {
	var ff FileSeries
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, nil, fmt.Errorf("csi: decoding recording: %w", err)
	}
	s, err := ff.ToSeries()
	if err != nil {
		return nil, nil, err
	}
	return s, &ff, nil
}
