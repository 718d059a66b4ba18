package sched

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcgs/internal/phylip"
)

// FuzzManifestLoad feeds arbitrary bytes to the batch-manifest loader: it
// must reject garbage with an error, never panic, and every manifest it
// does accept must satisfy the loader's own guarantees (jobs exist, are
// named uniquely, carry loaded alignments and pass Validate). A real
// alignment file sits next to the manifest so structurally valid inputs
// exercise the deep path, not just the JSON decoder.
func FuzzManifestLoad(f *testing.F) {
	aln := testAlignment(f, 4, 24, 7001)
	var phy strings.Builder
	if err := phylip.Write(&phy, aln); err != nil {
		f.Fatal(err)
	}

	seeds := []string{
		`{"jobs":[{"phylip":"a.phy"}]}`,
		`{"defaults":{"sampler":"mh","theta":1.0,"burnin":5,"samples":10,"em_iterations":1,"seed":5},"jobs":[{"phylip":"a.phy"},{"name":"b","phylip":"a.phy","sampler":"gmh","proposals":2}]}`,
		`{"defaults":{"sampler":"heated","max_temp":4,"adapt_ladder":true},"jobs":[{"phylip":"a.phy","chains":3}]}`,
		`{"jobs":[{"phylip":"a.phy","sampler":"gmh","max_temp":2}]}`,
		`{"jobs":[{"phylip":"missing.phy"}]}`,
		`{"jobs":[]}`,
		`{"jobs":[{"phylip":"a.phy","theta":-1}]}`,
		`{"jobs":[{"phylip":"a.phy","proposals":0}]}`,
		`{"unknown":1,"jobs":[{"phylip":"a.phy"}]}`,
		`{"jobs":[{"phylip":"a.phy","name":"x"},{"phylip":"a.phy","name":"x"}]}`,
		`not json at all`,
		`{"jobs":[{"phylip":"a.phy","theta":1}]}`,
		`{"defaults":{"sampler":"heated","theta":"0x1.3333333333333p-02","max_temp":4,"adapt_ladder":true,"ess_target":50},"jobs":[{"phylip":"a.phy","chains":3},{"name":"m","phylip":"a.phy","sampler":"multichain"}]}`,
		`{"jobs":[{"phylip":"a.phy","theta":"+Inf"}]}`,
		`{"jobs":[{"phylip":"a.phy","theta":1}]} {"jobs": garbage`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Each execution gets its own manifest directory (fuzz workers run
		// in parallel processes) with the alignment beside the manifest,
		// since relative phylip paths resolve against the manifest's dir.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "a.phy"), []byte(phy.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "batch.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, err := LoadManifest(path)
		if err != nil {
			return // rejected: fine, as long as nothing panicked
		}
		if len(jobs) == 0 {
			t.Fatal("LoadManifest returned no error and no jobs")
		}
		names := make(map[string]bool, len(jobs))
		for _, j := range jobs {
			if j.Name == "" {
				t.Fatal("accepted job with empty name")
			}
			if names[j.Name] {
				t.Fatalf("accepted duplicate job name %q", j.Name)
			}
			names[j.Name] = true
			if j.Alignment == nil || j.Alignment.NSeq() == 0 {
				t.Fatalf("accepted job %q without a loaded alignment", j.Name)
			}
			if err := j.Validate(); err != nil {
				t.Fatalf("accepted job %q that Validate refuses: %v", j.Name, err)
			}
		}
	})
}
