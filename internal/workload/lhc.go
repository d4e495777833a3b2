package workload

import (
	"fmt"
	"strconv"

	"repro/internal/replication"
	"repro/internal/rng"
)

// The LHC-style physics workload of the MONARC studies: the detector
// (T0) produces RAW events continuously; reconstruction derives ESD
// (event summary data) and AOD (analysis object data) products; tier
// centres run reconstruction and analysis jobs against those products.
//
// Sizes follow the canonical MONARC/LCG planning numbers (order of
// magnitude): RAW ~2 GB/file, ESD ~0.5 GB, AOD ~0.05 GB, with
// reconstruction demanding far more compute than analysis.

// LHCProduct identifies a data-product kind.
type LHCProduct int

// The LHC data products.
const (
	RAW LHCProduct = iota
	ESD
	AOD
)

// String returns the product name.
func (p LHCProduct) String() string {
	switch p {
	case RAW:
		return "RAW"
	case ESD:
		return "ESD"
	case AOD:
		return "AOD"
	default:
		return fmt.Sprintf("LHCProduct(%d)", int(p))
	}
}

// LHCSpec parameterizes the synthetic physics workload.
type LHCSpec struct {
	RAWBytes float64 // size of one RAW file
	ESDBytes float64
	AODBytes float64
	// RunPeriod is the mean gap between data-taking runs (seconds);
	// each run produces one RAW file at T0.
	RunPeriod float64
	// RecoOpsPerByte scales reconstruction compute to RAW size.
	RecoOpsPerByte float64
	// AnaOpsPerByte scales analysis compute to AOD size.
	AnaOpsPerByte float64
}

// DefaultLHCSpec returns the canonical parameterization.
func DefaultLHCSpec() LHCSpec {
	return LHCSpec{
		RAWBytes:       2e9,
		ESDBytes:       5e8,
		AODBytes:       5e7,
		RunPeriod:      600, // a run every 10 minutes
		RecoOpsPerByte: 50,
		AnaOpsPerByte:  20,
	}
}

// LHCFile names the i-th file of a product: "RAW-00042" etc., the
// string fmt.Sprintf("%s-%05d", p, i) makes, for one allocation.
func LHCFile(p LHCProduct, i int) string {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], int64(i), 10)
	var buf [32]byte
	name := append(append(buf[:0], p.String()...), '-')
	width := 5 // as %05d: a sign counts towards it, and the zeros follow the sign
	if i < 0 {
		name, digits, width = append(name, '-'), digits[1:], width-1
	}
	for w := len(digits); w < width; w++ {
		name = append(name, '0')
	}
	return string(append(name, digits...))
}

// LHCRun emits RAW production events: every (exponentially distributed)
// run period, produce is called with the next RAW file. Attach it to a
// replication.Agent to reproduce the T0→T1 distribution study.
func LHCRun(spec LHCSpec, src *rng.Source, produce func(i int, f *replication.File)) *Activity {
	i := 0
	return &Activity{
		Name:         "lhc-run",
		Interarrival: func() float64 { return src.Exp(1 / spec.RunPeriod) },
		Emit: func(int) {
			f := &replication.File{Name: LHCFile(RAW, i), Bytes: spec.RAWBytes}
			produce(i, f)
			i++
		},
	}
}

// RecoOps returns the compute demand of reconstructing one RAW file.
func (s LHCSpec) RecoOps() float64 { return s.RecoOpsPerByte * s.RAWBytes }

// AnaOps returns the compute demand of one analysis pass over one AOD.
func (s LHCSpec) AnaOps() float64 { return s.AnaOpsPerByte * s.AODBytes }
