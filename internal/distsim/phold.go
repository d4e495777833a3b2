package distsim

import "repro/internal/winsync"

// PHOLDModel is winsync's PHOLD benchmark model. It is the model
// parsim.NewPHOLD runs in one process, so a distributed PHOLD run can
// be checked bit for bit against a single-process one — the strongest
// statement a distributed engine can make about its synchronization.
type PHOLDModel = winsync.PHOLD

// InstallPHOLD wires the model into the worker's Setup, InstallLP and
// CountEvents hooks, with the canonical mean event spacing of 4
// lookaheads. Call before Worker.Run.
func InstallPHOLD(w *Worker, totalLPs, jobsPerLP int, remoteProb float64, work int) *PHOLDModel {
	return InstallPHOLDFactor(w, totalLPs, jobsPerLP, remoteProb, work, 4)
}

// InstallPHOLDFactor is InstallPHOLD with an explicit delay factor:
// large factors produce the sparse traffic that exercises coordinator
// window skipping.
func InstallPHOLDFactor(w *Worker, totalLPs, jobsPerLP int, remoteProb float64, work int, delayFactor float64) *PHOLDModel {
	return InstallPHOLDSkew(w, totalLPs, jobsPerLP, remoteProb, work, delayFactor, 0, 1, 0)
}

// InstallPHOLDSkew is InstallPHOLDFactor with a hot spot: LPs with ID
// < skewHot draw their event spacing from a mean skewFactor times
// shorter — more events per window — and additionally hold the hosting
// worker for hotHoldNs wall ns per event; the hold shapes wall time
// only.
func InstallPHOLDSkew(w *Worker, totalLPs, jobsPerLP int, remoteProb float64, work int, delayFactor float64, skewHot int, skewFactor float64, hotHoldNs int) *PHOLDModel {
	m := &PHOLDModel{
		TotalLPs: totalLPs, JobsPerLP: jobsPerLP, RemoteProb: remoteProb, Work: work,
		DelayFactor: delayFactor, SkewHot: skewHot, SkewFactor: skewFactor, HotHoldNs: hotHoldNs,
	}
	w.Setup = func(w *Worker) {
		for _, lp := range w.LPs() {
			m.Install(lp)
			m.Seed(lp)
		}
	}
	w.InstallLP = m.Install
	w.CountEvents = func() map[int]uint64 {
		counts := make(map[int]uint64, len(w.LPs()))
		for _, lp := range w.LPs() {
			counts[lp.ID] = m.Events(lp)
		}
		return counts
	}
	return m
}
