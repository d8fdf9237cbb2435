package main

import (
	"math"
	"math/rand"

	"stcam/internal/camera"
	"stcam/internal/geo"
	"stcam/internal/sim"
	"stcam/internal/vision"
	"stcam/internal/wire"
)

// The deployment is the evaluation world of internal/bench rebuilt from the
// public sim, vision and camera APIs: a 2 km square watched by a 16×16 grid
// of omnidirectional cameras, random-waypoint walkers, and a detector with
// 1 m position noise and 32-dim appearance features.
const (
	worldSide   = 2000.0
	camsPerSide = 16
	featureDim  = 32
	routeSlack  = 150.0 // AddCameras vision-graph gap, as in the R5 experiment
)

// deployment is the camera layout shared by every workload.
type deployment struct {
	world geo.Rect
	cams  []wire.CameraInfo
	net   *camera.Network
}

func newDeployment() *deployment {
	world := geo.RectOf(0, 0, worldSide, worldSide)
	d := &deployment{world: world, net: camera.NewNetwork()}
	cw := worldSide / camsPerSide
	id := uint32(1)
	for r := 0; r < camsPerSide; r++ {
		for c := 0; c < camsPerSide; c++ {
			ci := wire.CameraInfo{
				ID:      id,
				Pos:     geo.Pt((float64(c)+0.5)*cw, (float64(r)+0.5)*cw),
				HalfFOV: math.Pi,
				Range:   0.8 * cw,
			}
			d.cams = append(d.cams, ci)
			d.net.Add(camera.New(camera.ID(ci.ID), ci.Pos, ci.Orient, ci.HalfFOV, ci.Range))
			id++
		}
	}
	d.net.BuildIndex(0)
	return d
}

// frame is one camera's detections for one simulation tick: the unit the
// open-loop generator sends.
type frame struct {
	tick int
	dets []vision.Detection
}

// feed is a seeded world and detector that generate a detection stream
// from sim.DefaultStart a tick at a time, split into per-camera frames in
// tick order. A workload generates each part of its stream just before it
// feeds it, so frames a phase does not use are not in its heap, where every
// collection cycle would mark them. ObsIDs come from the detector, unique
// within the feed; a workload that needs two feeds splits one feed by tick,
// so its feeds never share an ObsID.
type feed struct {
	net   *camera.Network
	w     *sim.World
	det   *vision.Detector
	ticks int // generated so far
	obs   int // generated so far
}

// feedStart is the simulation epoch: tick i's detections are stamped
// feedStart + (i+1) s.
var feedStart = sim.DefaultStart

func newFeed(d *deployment, walkers int, seed int64) *feed {
	w, err := sim.NewWorld(sim.Config{
		World:      d.world,
		NumObjects: walkers,
		Model:      &sim.RandomWaypoint{World: d.world, MinSpeed: 5, MaxSpeed: 20},
		Seed:       seed,
		FeatureDim: featureDim,
	})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	det := vision.NewDetector(vision.DetectorConfig{
		PosNoise:     1.0,
		FeatureNoise: 0.05,
		FeatureDim:   featureDim,
		Seed:         seed,
	})
	return &feed{net: d.net, w: w, det: det}
}

// next runs the world for n more ticks and returns their frames.
func (f *feed) next(n int) []frame {
	var out []frame
	f.w.Run(n, f.net, f.det, func(i int, obs []vision.Detection) {
		// ObserveFlat orders by camera, so each run of equal cameras is one
		// camera's frame.
		for lo := 0; lo < len(obs); {
			hi := lo
			for hi < len(obs) && obs[hi].Camera == obs[lo].Camera {
				hi++
			}
			out = append(out, frame{tick: f.ticks + i, dets: obs[lo:hi:hi]})
			lo = hi
		}
		f.obs += len(obs)
	})
	f.ticks += n
	return out
}

// segment returns the frames of ticks [from, to).
func segment(fs []frame, from, to int) []frame {
	lo, hi := len(fs), len(fs)
	for i, f := range fs {
		if f.tick >= from && lo == len(fs) {
			lo = i
		}
		if f.tick >= to {
			hi = i
			break
		}
	}
	if lo > hi {
		lo = hi
	}
	return fs[lo:hi]
}

func countObs(fs []frame) int {
	n := 0
	for _, f := range fs {
		n += len(f.dets)
	}
	return n
}

// allDets flattens frames into one detection slice.
func allDets(fs []frame) []vision.Detection {
	out := make([]vision.Detection, 0, countObs(fs))
	for _, f := range fs {
		out = append(out, f.dets...)
	}
	return out
}

// stripFeatures returns copies without appearance features: the oracle
// compares answers by ObsID, so it needs positions and times only.
func stripFeatures(dets []vision.Detection) []vision.Detection {
	out := make([]vision.Detection, len(dets))
	for i, d := range dets {
		d.Feature = nil
		out[i] = d
	}
	return out
}

// zipf draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^s.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(rng *rand.Rand, n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n), rng: rng}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
