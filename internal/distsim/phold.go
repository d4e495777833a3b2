package distsim

import "repro/internal/winsync"

// PHOLDModel is winsync's PHOLD benchmark model. It is the model
// parsim.NewPHOLD runs in one process, so a distributed PHOLD run can
// be checked bit for bit against a single-process one — the strongest
// statement a distributed engine can make about its synchronization.
type PHOLDModel = winsync.PHOLD

// InstallPHOLD installs the model with the canonical mean event
// spacing of 4 lookaheads and no skew.
func InstallPHOLD(w *Worker, totalLPs, jobsPerLP int, remoteProb float64, work int) *PHOLDModel {
	return InstallPHOLDFactor(w, totalLPs, jobsPerLP, remoteProb, work, 4)
}

// InstallPHOLDFactor is InstallPHOLD with an explicit delay factor:
// large factors produce the sparse traffic that exercises coordinator
// window skipping.
func InstallPHOLDFactor(w *Worker, totalLPs, jobsPerLP int, remoteProb float64, work int, delayFactor float64) *PHOLDModel {
	return InstallPHOLDModel(w, &PHOLDModel{TotalLPs: totalLPs, JobsPerLP: jobsPerLP,
		RemoteProb: remoteProb, Work: work, DelayFactor: delayFactor, SkewFactor: 1})
}

// InstallPHOLDModel wires m — the struct is the whole description of
// the model, skew and hot-LP hold included — into the worker's Setup,
// InstallLP and CountEvents hooks. Call before Worker.Run.
func InstallPHOLDModel(w *Worker, m *PHOLDModel) *PHOLDModel {
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
