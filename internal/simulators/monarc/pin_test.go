package monarc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/monitoring"
	"repro/internal/obs"
)

// exact formats every field of a result struct, floats as their bits.
func exact(v any) string {
	rv := reflect.ValueOf(v)
	var b strings.Builder
	for i := 0; i < rv.NumField(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		f := rv.Field(i)
		if f.Kind() == reflect.Float64 {
			fmt.Fprintf(&b, "%s=%x", rv.Type().Field(i).Name, math.Float64bits(f.Float()))
			continue
		}
		fmt.Fprintf(&b, "%s=%v", rv.Type().Field(i).Name, f.Interface())
	}
	return b.String()
}

// observed runs fn with every engine it builds observed, and returns
// one line per engine: the events executed, the schedule sequence
// reached and an FNV-64 of every executed event's time bits and seq, in
// execution order. Labels stay out: only they differ between the forms
// a model has had.
func observed(fn func()) []string {
	var lines []string
	var executed, scheduled uint64
	h := fnv.New64a()
	flush := func() {
		if executed > 0 {
			lines = append(lines, fmt.Sprintf("engine %d/%d %016x", executed, scheduled, h.Sum64()))
		}
		executed, scheduled = 0, 0
		h.Reset()
	}
	var buf []byte
	des.SetDefaultObserver(&des.Observer{Hook: func(ev obs.Event) {
		if ev.Seq == 1 {
			flush()
		}
		executed++
		scheduled = max(scheduled, ev.Seq)
		buf = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf[:0], math.Float64bits(ev.Time)), ev.Seq)
		h.Write(buf)
	}})
	defer des.SetDefaultObserver(nil)
	fn()
	flush()
	return lines
}

// TestTierModelPinned holds the tier model bit for bit on seeds 1–3:
// every TierStudyPoint of lsbench's six-link sweep, Run with analysis
// jobs and T2 centres, and ReplayMonitoring, floats as bits; and, per
// engine, the events executed, the schedule sequence reached and a hash
// of every executed event's instant and seq. It replaces
// TestTierModelMatchesProcessReference, which ran the process bodies
// the event chains replaced beside them; the constants were recorded
// at commit 74e1d7d, where both forms produced them.
func TestTierModelPinned(t *testing.T) {
	links := []float64{0.622, 1.25, 2.5, 10, 30, 40}
	records, err := monitoring.Parse(strings.NewReader(`
60 T1.0 submit_jobs 3
90 T1.1 submit_jobs 5
90 T1.3 submit_jobs 2
400 T1.2 submit_jobs 6
`))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultConfig()
		cfg.Seed, cfg.Runs, cfg.LHC.RunPeriod = seed, 12, 30
		replay := DefaultConfig()
		replay.Seed, replay.Runs, replay.LHC.RunPeriod = seed, 6, 10
		pin := func(name string, run func() []string) {
			var lines []string
			engines := observed(func() { lines = run() })
			key := fmt.Sprintf("seed %d %s", seed, name)
			if got, want := strings.Join(append(lines, engines...), "\n"), tierPins[key]; got != want {
				t.Errorf("%s:\n got  %s\n want %s", key, got, want)
			}
		}
		pin("tier study", func() (s []string) {
			for _, p := range RunTierStudy(seed, links, 200, 4000) {
				s = append(s, exact(p))
			}
			return s
		})
		pin("run", func() []string { return []string{exact(Run(cfg))} })
		pin("replay", func() []string {
			res, err := ReplayMonitoring(replay, records)
			return []string{exact(res) + fmt.Sprintf(" err=%v", err)}
		})
	}
}

var tierPins = map[string]string{
	"seed 1 tier study": `LinkGbps=3fe3e76c8b439581 Shipped=0 Expected=800 Backlog=800 MaxDelay=0 DeliveredPct=0 Sufficient=false
LinkGbps=3ff4000000000000 Shipped=12 Expected=800 Backlog=788 MaxDelay=40aad7b4ff32cd48 DeliveredPct=3ff8000000000000 Sufficient=false
LinkGbps=4004000000000000 Shipped=136 Expected=800 Backlog=664 MaxDelay=40ac5aa08fa8b4fb DeliveredPct=4031000000000000 Sufficient=false
LinkGbps=4024000000000000 Shipped=800 Expected=800 Backlog=0 MaxDelay=404a43b11c034900 DeliveredPct=4059000000000000 Sufficient=true
LinkGbps=403e000000000000 Shipped=800 Expected=800 Backlog=0 MaxDelay=402957dc5aaa2100 DeliveredPct=4059000000000000 Sufficient=true
LinkGbps=4044000000000000 Shipped=800 Expected=800 Backlog=0 MaxDelay=402327ddc1256d80 DeliveredPct=4059000000000000 Sufficient=true
engine 3805/4815 3683b6cd6abfafe7
engine 3859/4866 79b756f1c4dc2136
engine 4355/5351 540582f567b2803c
engine 6637/7386 f9deec06e7eb2a8a
engine 6625/7258 5a2ce246e0476dbc
engine 6625/7245 42c39c3572e56eed`,
	"seed 1 run": `RawProduced=12 Shipped=48 AgentBacklog=0 AgentMaxDelay=4024e66666666670 RecoJobs=12 AnalysisJobs=60 MeanRecoTime=4049000000000000 MeanAnaTime=40120f5c28f5c290 T0Utilization=3f81401b2936a248 WANBytes=42365a0bc0000000 End=4091641123900586 DBQueries=60
engine 770/806 02eaeddbeb8b46e1`,
	"seed 1 replay": `RecordsApplied=4 AnalysisJobs=16 MeanAnaTime=40121147ae147ada DBQueries=16 err=<nil>
engine 246/265 d3f5a654c28cceb1`,
	"seed 2 tier study": `LinkGbps=3fe3e76c8b439581 Shipped=0 Expected=800 Backlog=800 MaxDelay=0 DeliveredPct=0 Sufficient=false
LinkGbps=3ff4000000000000 Shipped=0 Expected=800 Backlog=800 MaxDelay=0 DeliveredPct=0 Sufficient=false
LinkGbps=4004000000000000 Shipped=132 Expected=800 Backlog=668 MaxDelay=40ad06dd3893ef34 DeliveredPct=4030800000000000 Sufficient=false
LinkGbps=4024000000000000 Shipped=800 Expected=800 Backlog=0 MaxDelay=40488d342c13472e DeliveredPct=4059000000000000 Sufficient=true
LinkGbps=403e000000000000 Shipped=800 Expected=800 Backlog=0 MaxDelay=4025c7a7e842c180 DeliveredPct=4059000000000000 Sufficient=true
LinkGbps=4044000000000000 Shipped=800 Expected=800 Backlog=0 MaxDelay=4020ff4212d59d80 DeliveredPct=4059000000000000 Sufficient=true
engine 3827/4845 642cc4c384e7215a
engine 3827/4845 642cc4c384e7215a
engine 4331/5337 21b31aebf11d3118
engine 6685/7417 3bb628e7206718b6
engine 6669/7317 a193edfa6dfee518
engine 6661/7300 d28ab25c4f0513a1`,
	"seed 2 run": `RawProduced=12 Shipped=48 AgentBacklog=0 AgentMaxDelay=40318cd2222412d6 RecoJobs=12 AnalysisJobs=59 MeanRecoTime=4049000000000000 MeanAnaTime=40135c70a4bc958e T0Utilization=3f830eb73b3c223b WANBytes=42374876e8000000 End=408f7bd374583677 DBQueries=59
engine 776/821 246857a3d9fe7b30`,
	"seed 2 replay": `RecordsApplied=4 AnalysisJobs=16 MeanAnaTime=40121147ae147ada DBQueries=16 err=<nil>
engine 246/269 4ad8ecc43701d9e7`,
	"seed 3 tier study": `LinkGbps=3fe3e76c8b439581 Shipped=0 Expected=800 Backlog=800 MaxDelay=0 DeliveredPct=0 Sufficient=false
LinkGbps=3ff4000000000000 Shipped=8 Expected=800 Backlog=792 MaxDelay=40aee32d6084b42a DeliveredPct=3ff0000000000000 Sufficient=false
LinkGbps=4004000000000000 Shipped=144 Expected=800 Backlog=656 MaxDelay=40abe3de9d10fd9a DeliveredPct=4032000000000000 Sufficient=false
LinkGbps=4024000000000000 Shipped=800 Expected=800 Backlog=0 MaxDelay=4045a58b1e4b5820 DeliveredPct=4059000000000000 Sufficient=true
LinkGbps=403e000000000000 Shipped=800 Expected=800 Backlog=0 MaxDelay=4026b6e94eb93f80 DeliveredPct=4059000000000000 Sufficient=true
LinkGbps=4044000000000000 Shipped=800 Expected=800 Backlog=0 MaxDelay=40222e60c630b700 DeliveredPct=4059000000000000 Sufficient=true
engine 3724/4726 8a0b9f5c3641717f
engine 3748/4751 19a92f226722cc7c
engine 4316/5299 7e300c6217a0b34e
engine 6548/7282 710f88064f3f2ce4
engine 6532/7180 53bc9a1cc6f68e84
engine 6532/7173 137fd415adbc92dd`,
	"seed 3 run": `RawProduced=12 Shipped=48 AgentBacklog=0 AgentMaxDelay=402d328dc8ac7844 RecoJobs=12 AnalysisJobs=60 MeanRecoTime=4049000000000000 MeanAnaTime=40120f5c28f5c285 T0Utilization=3f83f79b82fb7f15 WANBytes=42365a0bc0000000 End=408e0c9c061754c1 DBQueries=60
engine 770/809 8a791dc15d846ee5`,
	"seed 3 replay": `RecordsApplied=4 AnalysisJobs=16 MeanAnaTime=40121147ae147ada DBQueries=16 err=<nil>
engine 246/267 0a739287ae3c8936`,
}
