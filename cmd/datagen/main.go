// Command datagen generates the synthetic spatial-textual datasets that
// stand in for the paper's Flickr and Yelp collections (README, "Design
// notes") and writes them in the text interchange format of
// internal/dataset:
//
//	objects.txt:    id <tab> x <tab> y <tab> kw1,kw2,...
//	users.txt:      id <tab> x <tab> y <tab> kw1,kw2,...
//	candidates.txt: "loc" lines (x, y) then one "keywords" line
//
// Usage:
//
//	datagen -kind flickr -n 20000 -out ./data
//	datagen -kind yelp -n 5000 -users 1000 -out ./data
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dataset"
)

func main() {
	var (
		kind  = flag.String("kind", "flickr", "dataset family: flickr or yelp")
		n     = flag.Int("n", 20000, "number of objects")
		users = flag.Int("users", 1000, "number of users")
		ul    = flag.Int("ul", 3, "keywords per user")
		uw    = flag.Int("uw", 20, "pooled unique user keywords")
		area  = flag.Float64("area", 5, "user region side length")
		locs  = flag.Int("locations", 50, "candidate locations")
		seed  = flag.Int64("seed", 1, "random seed")
		out   = flag.String("out", ".", "output directory")
	)
	flag.Parse()

	var ds *dataset.Dataset
	switch strings.ToLower(*kind) {
	case "flickr":
		cfg := dataset.DefaultFlickrConfig(*n)
		cfg.Seed = *seed
		ds = dataset.GenerateFlickr(cfg)
	case "yelp":
		cfg := dataset.DefaultYelpConfig(*n)
		cfg.Seed = *seed
		ds = dataset.GenerateYelp(cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", *kind)
		os.Exit(2)
	}

	us := dataset.GenerateUsers(ds, dataset.UserConfig{
		NumUsers: *users, UL: *ul, UW: *uw, Area: *area, Seed: *seed + 1,
	})
	cands := dataset.CandidateLocations(us.Region, *locs, *area/4+0.5, *seed+2)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	writeFile(filepath.Join(*out, "objects.txt"), func(f *os.File) error {
		return dataset.WriteObjects(f, ds)
	})
	writeFile(filepath.Join(*out, "users.txt"), func(f *os.File) error {
		return dataset.WriteUsers(f, ds.Vocab, us.Users)
	})
	writeFile(filepath.Join(*out, "candidates.txt"), func(f *os.File) error {
		return dataset.WriteCandidates(f, ds.Vocab, cands, us.Keywords)
	})

	fmt.Printf("wrote %s: %s\n", *out, ds.Describe())
	fmt.Printf("users=%d candidate locations=%d candidate keywords=%d\n",
		len(us.Users), len(cands), len(us.Keywords))
}

func writeFile(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
