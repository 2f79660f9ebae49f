// Package namgen synthesizes a NAM-like atmospheric dataset — the stand-in
// for the paper's 1.1 TB NOAA North American Mesoscale feed (§VIII-B).
//
// The generator is deterministic and block-addressable: the observations for
// any (geohash prefix, day) block are a pure function of the generator seed
// and the block identity. The backing store can therefore materialize any
// block lazily on first read, simulating an arbitrarily large global dataset
// with zero resident footprint — what matters to the experiments is the
// per-block disk cost and per-point aggregation cost, both of which are
// exercised exactly as with stored data.
package namgen

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"

	"stash/internal/cell"
	"stash/internal/geohash"
	"stash/internal/temporal"
)

// Attributes are the observed fields carried by every synthetic observation,
// mirroring the NAM features named in the paper (surface temperature,
// relative humidity, snow and precipitation), in the column order stashgen
// prints. They are exactly the cell schema (cell.Attr); Values returns an
// observation in that schema's index order.
var Attributes = []string{"temperature", "humidity", "precipitation", "snow"}

// HistogramSpecs gives each attribute a natural distribution range for
// pipelines that maintain histograms alongside the scalar aggregates.
var HistogramSpecs = [cell.NumAttrs]cell.HistogramSpec{
	cell.Temperature:   {Lo: -50, Hi: 50, Buckets: 20},
	cell.Humidity:      {Lo: 0, Hi: 1, Buckets: 20},
	cell.Precipitation: {Lo: 0, Hi: 20, Buckets: 20},
	cell.Snow:          {Lo: 0, Hi: 10, Buckets: 20},
}

// Observation is a single synthetic sensor reading.
type Observation struct {
	Lat, Lon float64
	Time     time.Time

	Temperature   float64 // °C
	Humidity      float64 // fraction [0,1]
	Precipitation float64 // mm/h, >= 0
	Snow          float64 // mm/h water equivalent, >= 0
}

// Value returns the named attribute's value; ok is false for unknown names.
func (o Observation) Value(attr string) (float64, bool) {
	switch attr {
	case "temperature":
		return o.Temperature, true
	case "humidity":
		return o.Humidity, true
	case "precipitation":
		return o.Precipitation, true
	case "snow":
		return o.Snow, true
	}
	return 0, false
}

// Values returns the observation's attributes indexed by cell.Attr — the
// form the aggregation loops consume, with no name lookup per point.
func (o Observation) Values() [cell.NumAttrs]float64 {
	return [cell.NumAttrs]float64{
		cell.Temperature:   o.Temperature,
		cell.Humidity:      o.Humidity,
		cell.Precipitation: o.Precipitation,
		cell.Snow:          o.Snow,
	}
}

// Generator produces deterministic observation blocks. It also models a
// *mutable* backing dataset: Bump advances a block's version, after which
// the block deterministically regenerates with different values — the
// stand-in for real-time ingest updating stored data (paper §IV-D).
type Generator struct {
	// Seed namespaces the whole synthetic dataset; two generators with the
	// same seed produce identical blocks.
	Seed uint64
	// PointsPerBlock is the observation count per (prefix, day) block.
	PointsPerBlock int

	mu       sync.Mutex
	versions map[blockKey]uint64
}

// DefaultPointsPerBlock keeps full-cluster experiments fast while giving
// every cell at the paper's finest query resolution a realistic chance of
// multiple observations.
const DefaultPointsPerBlock = 256

// New returns a generator with the given seed and the default block size.
func New(seed uint64) *Generator {
	return &Generator{Seed: seed, PointsPerBlock: DefaultPointsPerBlock}
}

// Block materializes the observations for one (geohash prefix, day) block.
// The result is deterministic in (Seed, prefix, day) and independent of any
// other block.
func (g *Generator) Block(prefix string, day temporal.Label) ([]Observation, error) {
	box, err := geohash.DecodeBox(prefix)
	if err != nil {
		return nil, err
	}
	start, err := day.Start()
	if err != nil {
		return nil, err
	}
	end, _ := day.End()
	span := end.Sub(start)

	n := g.PointsPerBlock
	if n <= 0 {
		n = DefaultPointsPerBlock
	}
	rng := rand.New(rand.NewSource(int64(g.blockSeed(prefix, day))))
	out := make([]Observation, n)
	for i := range out {
		lat := box.MinLat + rng.Float64()*box.Height()
		lon := box.MinLon + rng.Float64()*box.Width()
		ts := start.Add(time.Duration(rng.Int63n(int64(span))))
		out[i] = synthesize(lat, lon, ts, rng)
	}
	return out, nil
}

// blockSeed derives the per-block PRNG seed, folding in the block's current
// version so updated blocks regenerate with new content. The day enters as
// its label text, so the dataset is the one the text-labelled generator made.
func (g *Generator) blockSeed(prefix string, day temporal.Label) uint64 {
	var buf [16]byte
	h := fnv.New64a()
	h.Write([]byte(prefix))
	h.Write([]byte{0})
	h.Write(day.AppendText(buf[:0]))
	h.Write([]byte{byte(day.Res)})
	return h.Sum64() ^ g.Seed ^ (g.Version(prefix, day) * 0x9e3779b97f4a7c15)
}

// blockKey names a block in the version table.
type blockKey struct {
	prefix string
	day    temporal.Label
}

// Version returns a block's current version (0 until first Bump).
func (g *Generator) Version(prefix string, day temporal.Label) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.versions[blockKey{prefix, day}]
}

// Bump records an update to a block: subsequent Block calls for it return
// new (still deterministic) content. It returns the new version.
func (g *Generator) Bump(prefix string, day temporal.Label) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.versions == nil {
		g.versions = map[blockKey]uint64{}
	}
	g.versions[blockKey{prefix, day}]++
	return g.versions[blockKey{prefix, day}]
}

// synthesize produces physically plausible attribute values: temperature
// falls with |latitude| and follows seasonal and diurnal cycles; humidity is
// bounded; precipitation is sparse and non-negative; snow occurs only below
// freezing.
func synthesize(lat, lon float64, ts time.Time, rng *rand.Rand) Observation {
	dayOfYear := float64(ts.YearDay())
	hour := float64(ts.Hour()) + float64(ts.Minute())/60

	// Base climate: warm equator, cold poles.
	base := 30 - 0.55*math.Abs(lat)
	// Seasonal swing, opposite phase per hemisphere.
	season := 12 * math.Cos(2*math.Pi*(dayOfYear-196)/365.25)
	if lat < 0 {
		season = -season
	}
	// Diurnal swing peaking mid-afternoon local time (approximate local
	// hour from longitude).
	localHour := math.Mod(hour+lon/15+24, 24)
	diurnal := 6 * math.Cos(2*math.Pi*(localHour-15)/24)
	temp := base + season + diurnal + rng.NormFloat64()*2

	hum := 0.55 + 0.25*math.Sin(lon/23) + rng.NormFloat64()*0.1
	hum = math.Max(0, math.Min(1, hum))

	var precip float64
	if rng.Float64() < 0.25*hum {
		precip = rng.ExpFloat64() * 2
	}
	var snow float64
	if temp < 0 && precip > 0 {
		snow = precip * (0.5 + rng.Float64()*0.5)
		precip = 0
	}
	return Observation{
		Lat: lat, Lon: lon, Time: ts,
		Temperature: temp, Humidity: hum, Precipitation: precip, Snow: snow,
	}
}
