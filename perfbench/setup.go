package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/classify"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ctypes"
	"repro/internal/elfx"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/word2vec"
)

// The model is pinned: a fixed training corpus and seed, the paper's
// architecture (Conv 32/64, dense 1024, all six stage networks, window
// 10), and explicit worker counts. CNN weights differ between worker
// counts but repeat exactly for a fixed one; Word2Vec trains Hogwild-style
// at more than one worker and repeats only in distribution, so it trains
// on one.
const (
	trainSeed     = 7
	trainBinaries = 8
	trainWorkers  = 2
	trainMaxStage = 500
)

// trainModel trains the benchmark's model and returns it sealed and
// reloaded, exactly as catiserve and the corpus worker will load it.
func trainModel(ctx context.Context) (*core.CATI, []byte, error) {
	c, err := corpus.BuildCtx(ctx, corpus.BuildConfig{
		Name:     "perfbench-train",
		Binaries: trainBinaries,
		Profile:  synth.DefaultProfile("perfbench-train"),
		Seed:     trainSeed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("training corpus: %w", err)
	}
	cati, err := core.TrainCtx(ctx, c, classify.Config{
		MaxPerStage: trainMaxStage,
		Train:       nn.TrainConfig{Epochs: 1, Batch: 32, LR: 2e-3},
		W2V:         word2vec.Config{Epochs: 1, Workers: 1},
		Seed:        trainSeed,
		Workers:     trainWorkers,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("training: %w", err)
	}
	if n := len(cati.Pipeline.Stages); n != len(ctypes.AllStages()) {
		return nil, nil, fmt.Errorf("training produced %d stage networks, want all %d", n, len(ctypes.AllStages()))
	}
	blob, err := cati.Save()
	if err != nil {
		return nil, nil, fmt.Errorf("sealing model: %w", err)
	}
	loaded, err := core.Load(blob)
	if err != nil {
		return nil, nil, fmt.Errorf("reloading model: %w", err)
	}
	return loaded, blob, nil
}

// input is one stripped binary the workload sends.
type input struct {
	name  string
	image []byte
	bin   *elfx.Binary
}

// build is one (dialect, optimization level) cell of the toolchain grid
// the interactive and cached inputs are spread over.
type build struct {
	dialect compile.Dialect
	opt     int
}

func (b build) String() string {
	d := "gcc"
	if b.dialect == compile.Clang {
		d = "clang"
	}
	return fmt.Sprintf("%s-O%d", d, b.opt)
}

var buildGrid = func() []build {
	var g []build
	for _, d := range []compile.Dialect{compile.GCC, compile.Clang} {
		for opt := 0; opt <= 3; opt++ {
			g = append(g, build{d, opt})
		}
	}
	return g
}()

// mix is splitmix64: it turns (seed, stream, index) into well-spread
// program seeds so neighbouring workload seeds share no inputs.
func mix(seed uint64, stream, i int) int64 {
	z := seed + uint64(stream)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// genInput synthesizes, compiles and strips one program.
func genInput(prof synth.Profile, b build, seed int64) (input, error) {
	p := synth.Generate(prof, seed)
	res, err := compile.Compile(p, compile.Options{Dialect: b.dialect, Opt: b.opt, Seed: seed})
	if err != nil {
		return input{}, fmt.Errorf("compiling %s seed %d: %w", b, seed, err)
	}
	img, err := elfx.Write(elfx.Strip(res.Binary))
	if err != nil {
		return input{}, fmt.Errorf("writing %s seed %d: %w", b, seed, err)
	}
	bin, err := elfx.Read(img)
	if err != nil {
		return input{}, fmt.Errorf("reading %s seed %d: %w", b, seed, err)
	}
	return input{name: fmt.Sprintf("%s-%016x", b, uint64(seed)), image: img, bin: bin}, nil
}

// gridFuncs pins the function count of grid inputs at the default
// profile's minimum (it draws 6–14), about 420 VUCs a binary. Locals and
// events per function still vary, but the per-seed mean request size —
// which every per-request metric follows — no longer swings with a few
// extreme draws, and requests are small enough for a window to hold the
// ~70 samples a steady p90 needs.
const gridFuncs = 6

// genGrid makes n distinct default-profile binaries spread round-robin
// over the toolchain grid, from the workload seed and a stream tag that
// keeps different input sets apart.
func genGrid(seed uint64, stream, n int) ([]input, error) {
	out := make([]input, 0, n)
	seen := make(map[[32]byte]bool, n)
	prof := synth.DefaultProfile("perfbench")
	prof.FuncsMin, prof.FuncsMax = gridFuncs, gridFuncs
	off := int(uint64(mix(seed, stream, -1)) % uint64(len(buildGrid)))
	for i := 0; len(out) < n; i++ {
		in, err := genInput(prof, buildGrid[(off+i)%len(buildGrid)], mix(seed, stream, i))
		if err != nil {
			return nil, err
		}
		if sum := sha256.Sum256(in.image); !seen[sum] {
			seen[sum] = true
			out = append(out, in)
		}
	}
	return out, nil
}

// largeInput makes one binary with exactly funcs functions — a fixed
// function count keeps its size, and so the slowest-part effect it
// exposes, steady across seeds.
func largeInput(seed uint64, stream, i, funcs int) (input, error) {
	prof := synth.DefaultProfile("perfbench-large")
	prof.FuncsMin, prof.FuncsMax = funcs, funcs
	return genInput(prof, buildGrid[i%len(buildGrid)], mix(seed, stream, i))
}

// varRecords renders inferred variables in the /v1/infer response schema
// (the same records `cati infer -json` prints).
func varRecords(vars []core.InferredVar) []serve.VarRecord {
	recs := make([]serve.VarRecord, len(vars))
	for i, v := range vars {
		recs[i] = serve.VarRecord{
			FuncLow: v.FuncLow, Slot: v.Slot, Global: v.Global,
			Size: v.Size, NumVUCs: v.NumVUCs, Class: v.Class.String(),
		}
	}
	return recs
}

// recordsJSON is the exact byte form of vars' records in a /v1/infer
// response body.
func recordsJSON(vars []core.InferredVar) []byte {
	b, err := json.Marshal(varRecords(vars))
	if err != nil {
		panic(err) // plain structs of strings and integers always encode
	}
	return b
}

// reference is the untimed in-process answer for one input.
type reference struct {
	records []byte // recordsJSON of core.InferBinary's result
	digest  string // sha256 of records
	vucs    int
	vars    int
}

// references runs core.InferBinary on every input.
func references(ctx context.Context, cati *core.CATI, ins []input) ([]reference, error) {
	out := make([]reference, len(ins))
	for i, in := range ins {
		vars, err := cati.InferBinaryCtx(ctx, in.bin)
		if err != nil {
			return nil, fmt.Errorf("reference inference of %s: %w", in.name, err)
		}
		out[i].records = recordsJSON(vars)
		out[i].digest = digestBytes(out[i].records)
		out[i].vars = len(vars)
		for _, v := range vars {
			out[i].vucs += v.NumVUCs
		}
	}
	return out, nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// recordsDigest folds every input's record digest, in input order, into
// one digest for the workload: equal digests on two commits mean
// byte-identical variable records for every input.
func recordsDigest(refs []reference) string {
	h := sha256.New()
	for _, r := range refs {
		h.Write([]byte(r.digest))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// modelCheck identifies a model by what it computes: a digest of every
// stage probability it gives on the probe inputs' VUCs. Fingerprint()
// cannot serve, because Pipeline.Encode ranges over the Stages map before
// gob-encoding, so two identical trainings seal to different bytes. It
// also fails when the tree routes degenerately: every Stage2 branch must
// be reached by some probe VUC.
func modelCheck(ctx context.Context, cati *core.CATI, probe []input) (string, error) {
	h := sha256.New()
	branches := make(map[int]int)
	var buf [4]byte
	for _, in := range probe {
		w, err := walk(ctx, cati, in, nil, 0)
		if err != nil {
			return "", fmt.Errorf("probe %s: %w", in.name, err)
		}
		for _, pr := range w.preds {
			for _, s := range ctypes.AllStages() {
				for _, v := range pr.StageProbs[s] {
					binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
					h.Write(buf[:])
				}
			}
			branches[nn.Argmax(pr.StageProbs[ctypes.Stage1])]++
		}
	}
	for b := 0; b < ctypes.StageArity(ctypes.Stage1); b++ {
		if branches[b] == 0 {
			return "", fmt.Errorf("degenerate model: no probe VUC routes to Stage1 branch %d (Stage2-%d unreached)", b, b+1)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
