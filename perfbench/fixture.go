package main

import (
	"math/rand"

	"repro/fivm"
	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/value"
	"repro/internal/view"
)

// fixture is the one Retailer database every workload runs on, plus an
// update stream generated from the run's seed.
type fixture struct {
	db     *dataset.Database
	fspecs []fivm.RelationSpec
	bspecs []baseline.RelSpec
	stream *stream
}

// mix is an update stream's relation shares; they sum to 1.
type mix struct {
	inventory, item, weather float64
}

// Stream shape. window is how many insert steps a tuple stays live
// before the stream deletes it again; poolFactor×window distinct insert
// tuples are generated and cycled through, so no tuple is re-inserted
// while still live.
const (
	defaultWindow = 10_000
	poolFactor    = 20
)

// databaseSeed fixes the base database, so that runs with different
// seeds differ only in their update streams.
const databaseSeed = 1

func newFixture(seed int64, rows, window int, m mix) *fixture {
	cfg := dataset.DefaultRetailerConfig()
	cfg.InventoryRows = rows
	cfg.Seed = databaseSeed
	f := &fixture{db: dataset.Retailer(cfg)}
	for _, r := range f.db.Relations {
		f.fspecs = append(f.fspecs, fivm.RelationSpec{Name: r.Name, Attrs: r.Attrs})
		f.bspecs = append(f.bspecs, baseline.RelSpec{Name: r.Name, Schema: r.Schema()})
	}
	f.stream = newStream(f.db, cfg.Items, seed, window, m)
	return f
}

// initData is the database the engines bulk-load: the base relations
// plus the stream's first window of inserts, so the live state already
// has its steady-state size when measurement starts.
func (f *fixture) initData() map[string][]value.Tuple {
	data := f.db.TupleMap()
	out := make(map[string][]value.Tuple, len(data))
	for rel, ts := range data {
		out[rel] = append([]value.Tuple(nil), ts...)
	}
	for s := 0; s < f.stream.window; s++ {
		u := f.stream.pool[s%len(f.stream.pool)]
		out[u.Rel] = append(out[u.Rel], u.Tuple)
	}
	return out
}

// finalData is the database after every update the stream has emitted
// so far: the base relations plus the inserts still inside the window.
func (f *fixture) finalData() map[string][]value.Tuple {
	data := f.db.TupleMap()
	out := make(map[string][]value.Tuple, len(data))
	for rel, ts := range data {
		out[rel] = append([]value.Tuple(nil), ts...)
	}
	for s := f.stream.deleted; s < f.stream.inserted; s++ {
		u := f.stream.pool[s%len(f.stream.pool)]
		out[u.Rel] = append(out[u.Rel], u.Tuple)
	}
	return out
}

// stream is the seeded, state-bounded update stream. Insert step s adds
// pool[s mod len(pool)]; once s ≥ window, the step also deletes the
// tuple inserted window steps earlier. The live state therefore stays
// at the base database plus window inserts however long a run lasts.
// Steps [0, window) are preloaded by initData, so next starts at step
// window.
type stream struct {
	pool     []view.Update
	window   int
	inserted int // insert steps emitted (or preloaded)
	deleted  int // delete steps emitted
}

func newStream(db *dataset.Database, items int, seed int64, window int, m mix) *stream {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	inv, _ := db.Relation("Inventory")
	item, _ := db.Relation("Item")
	wea, _ := db.Relation("Weather")
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(items-1))
	// Item updates cycle through every item in a seeded order, so each
	// item is updated equally often. An Item update costs in proportion
	// to the item's Inventory degree, which is zipf-skewed: drawn at
	// random, a seed would change how much high-degree work the stream
	// holds, not only its order.
	itemOrder := rng.Perm(len(item.Tuples))
	nItem := 0
	pool := make([]view.Update, poolFactor*window)
	for i := range pool {
		r := rng.Float64()
		switch {
		case r < m.inventory:
			// A fact row for an existing (store, date), so it joins
			// Weather; items follow the base data's zipf skew.
			b := inv.Tuples[rng.Intn(len(inv.Tuples))]
			pool[i] = view.Update{Rel: "Inventory", Mult: 1, Tuple: value.T(
				b[0].Int(), b[1].Int(), int(zipf.Uint64()), rng.Intn(500))}
		case r < m.inventory+m.item:
			// A second Item row for an existing ksn, with a new price: a
			// high-degree update that joins every Inventory row of that
			// item.
			b := item.Tuples[itemOrder[nItem%len(itemOrder)]]
			nItem++
			pool[i] = view.Update{Rel: "Item", Mult: 1, Tuple: value.T(
				b[0].Int(), b[1].Int(), b[2].Int(), b[3].Int(), 0.5+rng.Float64()*99.5)}
		default:
			// A second Weather row for an existing (store, date).
			b := wea.Tuples[rng.Intn(len(wea.Tuples))]
			maxt := -5 + rng.Float64()*40
			pool[i] = view.Update{Rel: "Weather", Mult: 1, Tuple: value.T(
				b[0].Int(), b[1].Int(), rng.Intn(2), rng.Intn(2), maxt, maxt-2-rng.Float64()*10, rng.Float64()*30, rng.Intn(2))}
		}
	}
	return &stream{pool: pool, window: window, inserted: window}
}

// next appends n stream updates to buf and returns it. Within a step
// the insert comes first, then the delete of the tuple window steps
// back, so a chunk boundary may fall between the two.
func (s *stream) next(buf []view.Update, n int) []view.Update {
	for k := 0; k < n; k++ {
		if s.deleted < s.inserted-s.window {
			u := s.pool[s.deleted%len(s.pool)]
			u.Mult = -1
			buf = append(buf, u)
			s.deleted++
			continue
		}
		buf = append(buf, s.pool[s.inserted%len(s.pool)])
		s.inserted++
	}
	return buf
}
