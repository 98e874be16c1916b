package core

import (
	"math/rand/v2"

	"clustercolor/internal/coloring"
	"clustercolor/internal/matching"
	"clustercolor/internal/putaside"
	"clustercolor/internal/sct"
)

// This file exports the per-clique stage seams of the high-degree pipeline:
// the exact job bodies the parallel stage loops run for one almost-clique
// (MatchingJob, SCTJob, DonateJob), the task structs pinning their inputs,
// the snapshot-writes diff (MemberWrites), and a StageTracer hook that
// surfaces every stage's inputs and outcomes to an observer. Each job reads
// and writes only its clique's coloring.CliqueView. The pipeline fills the
// view from H and the stage snapshot; a distsim member leader fills it from
// its gossiped records, with no charge hook, and calls the same job — one
// implementation per primitive, byte-compared across the two layers by the
// conformance harness. Nothing here changes pipeline behaviour: Color calls
// ColorTraced with a nil tracer.

// MatchingTask pins one clique's colorful-matching inputs (Algorithm 4/5
// Step 1): the members, the reserved prefix the matching must avoid, the
// sampling-round budget, and the cabal fingerprint-backup configuration.
type MatchingTask struct {
	Members       []int
	ReservedMax   int32
	Rounds        int
	TargetRepeats int
	// WithFingerprint enables the Proposition 4.15 backup when sampling
	// falls short; FingerprintTrials is its trial count k.
	WithFingerprint   bool
	FingerprintTrials int
}

// MatchingJob runs one clique's colorful matching on its view, exactly as
// the parallel stage loop does. It returns M_K, the number of
// repeated-color units created.
func MatchingJob(v *coloring.CliqueView, task MatchingTask, rng *rand.Rand) (int, error) {
	m, err := matching.Sampling(v, matching.SamplingOptions{
		Phase:         "matching/sampling",
		ReservedMax:   task.ReservedMax,
		Rounds:        task.Rounds,
		TargetRepeats: task.TargetRepeats,
	}, rng)
	if err != nil {
		return 0, err
	}
	if task.WithFingerprint && m < task.TargetRepeats && len(v.Members) >= 8 {
		// Proposition 4.15 backup: find anti-edges among uncolored members
		// by fingerprinting, then color the pairs.
		var uncolored []int
		for i, c := range v.Colors {
			if c == coloring.None {
				uncolored = append(uncolored, i)
			}
		}
		if len(uncolored) >= 4 {
			pairs, err := matching.FingerprintMatching(v, matching.FingerprintOptions{
				Phase:       "matching/fingerprint",
				Members:     uncolored,
				Trials:      task.FingerprintTrials,
				TargetPairs: task.TargetRepeats - m,
			}, rng)
			if err != nil {
				return 0, err
			}
			colored, err := matching.ColorPairs(v, pairs, task.ReservedMax, "matching/colorpairs", rng)
			if err != nil {
				return 0, err
			}
			m += colored
		}
	}
	return m, nil
}

// SCTTask pins one clique's synchronized color trial inputs (Lemma 4.13):
// members, the clique's reserved prefix, and the per-member inlier/exclusion
// flags (aligned with Members) that gate participation.
type SCTTask struct {
	Members     []int
	ReservedMax int32
	Inlier      []bool
	Exclude     []bool
}

// SCTJob runs one clique's synchronized color trial on its view, exactly
// as the parallel stage loop does: participants are the uncolored
// non-excluded inliers, capped by the clique palette's non-reserved
// capacity (Lemma 4.13's precondition). It returns the number of vertices
// colored.
func SCTJob(v *coloring.CliqueView, task SCTTask, rng *rand.Rand) (int, error) {
	capacity := 0
	for _, c := range v.Palette().FreeView() {
		if c > task.ReservedMax {
			capacity++
		}
	}
	var participants []int
	for i, c := range v.Colors {
		if c != coloring.None || !task.Inlier[i] || task.Exclude[i] {
			continue
		}
		if len(participants) == capacity {
			break
		}
		participants = append(participants, i)
	}
	if len(participants) == 0 {
		// Even learning that no one participates costs the enumeration
		// rounds (Lemma 3.3 prefix sums count the participants); charging
		// them keeps the model no cheaper than the machine-level protocol
		// the distsim conformance harness executes.
		v.Charge("sct", "/enumerate", 2, 2*v.IDBits())
		return 0, nil
	}
	res, err := sct.Run(v, sct.Options{
		Phase:        "sct",
		Participants: participants,
		ReservedMax:  task.ReservedMax,
	}, rng)
	if err != nil {
		return 0, err
	}
	return res.Colored, nil
}

// DonateTask pins one cabal's put-aside donation inputs (Algorithm 8): the
// members, the put-aside set as indices into Members, the per-member
// inlier and forbidden-donor flags (aligned with Members), and the scaled
// thresholds.
type DonateTask struct {
	Members            []int
	PutAside           []int
	Inlier             []bool
	Forbidden          []bool
	FreeColorThreshold int
	BlockSize          int
	SampleTries        int
}

// DonateAux reports how a DonateJob colored its put-aside set.
type DonateAux struct {
	Donated  int
	Free     int
	Fallback int
}

// DonateJob runs one cabal's put-aside donation on its view, exactly as
// the parallel stage loop does. A task with an empty put-aside set is a
// no-op.
func DonateJob(v *coloring.CliqueView, task DonateTask, rng *rand.Rand) (DonateAux, error) {
	if len(task.PutAside) == 0 {
		return DonateAux{}, nil
	}
	res, err := putaside.ColorPutAside(v, putaside.DonateOptions{
		Phase:              "cabal/donate",
		PutAside:           task.PutAside,
		Inlier:             task.Inlier,
		ForbiddenDonors:    task.Forbidden,
		FreeColorThreshold: task.FreeColorThreshold,
		BlockSize:          task.BlockSize,
		SampleTries:        task.SampleTries,
	}, rng)
	if err != nil {
		return DonateAux{}, err
	}
	return DonateAux{Donated: res.ViaDonation, Free: res.ViaFreeColors, Fallback: res.ViaFallback}, nil
}

// MemberWrite is one vertex recolored by a per-clique stage engine relative
// to the stage's snapshot.
type MemberWrite struct {
	V int
	C int32
}

// MemberWrites lists the writes that take a clique's members from their
// colors in snap to colors (aligned with members): recolorings first, then
// newly colored, so a donor's swap applies before its recipient adopts the
// freed color.
func MemberWrites(snap *coloring.Coloring, members []int, colors []int32) []MemberWrite {
	var out []MemberWrite
	for pass := 0; pass < 2; pass++ {
		for i, v := range members {
			nc, oc := colors[i], snap.Get(v)
			if nc == oc {
				continue
			}
			if recolor := oc != coloring.None; (pass == 0) != recolor {
				continue
			}
			out = append(out, MemberWrite{V: v, C: nc})
		}
	}
	return out
}

// StageTrace reports one parallel per-clique stage of the high-degree
// pipeline: which primitive ran, against which frozen snapshot, with which
// per-clique tasks and derived seeds, what the cost model charged for it,
// and what every clique's engine wrote against its snapshot view (before
// cross-clique conflict drops).
type StageTrace struct {
	// Stage is "decompose", "matching/noncabals", "sct/noncabals",
	// "matching/cabals", "sct/cabals", or "donate". A "decompose" trace is
	// vertex-level: it carries only ChargedRounds (no tasks, snapshot, or
	// writes) — the fingerprint-wave primitive covers its machine level.
	Stage string
	// BaseSeed is the stage's seed; clique i ran with a fresh PCG stream
	// seeded by parwork.RowSeed(BaseSeed, i).
	BaseSeed uint64
	// Snapshot is a clone of the coloring every clique's engine ran against.
	Snapshot *coloring.Coloring
	// ChargedRounds is what the stage added to the cost model: the maximum
	// over the per-clique scratch models (AbsorbParallel semantics).
	ChargedRounds int64
	// Exactly one of the task slices is non-nil, aligned with Writes.
	Matching []MatchingTask
	SCT      []SCTTask
	Donate   []DonateTask
	// Writes lists each clique's snapshot-relative writes.
	Writes [][]MemberWrite
	// Per-clique auxiliary outcomes, aligned with the task slice.
	MatchingRepeats []int
	SCTColored      []int
	DonateAux       []DonateAux
}

// StageTracer observes per-clique stages as the pipeline executes them.
// The trace and its Snapshot are owned by the observer: the pipeline clones
// the coloring per stage and never touches the trace again, so retaining it
// (as the conformance harness does) is safe.
type StageTracer func(*StageTrace)
