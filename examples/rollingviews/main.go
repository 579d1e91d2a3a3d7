// Rollingviews: continuous queries over a live stream. Instead of
// recomputing a dashboard's aggregates on every poll, the stream
// maintains named views incrementally: each is a ring of panes fed from
// the seal-publication path, and a read merges the live panes. The
// example registers a sliding per-key count and a tumbling p95 quantile,
// feeds readings through in chunks, and polls both views as the windows
// fill, slide, and tumble.
package main

import (
	"fmt"
	"log"

	"memagg"
)

const (
	nReadings = 400_000
	nSensors  = 128
	paneRows  = 50_000
)

func main() {
	sensorIDs, err := memagg.Generate(memagg.RseqShf, nReadings, nSensors, 11)
	if err != nil {
		log.Fatal(err)
	}
	readings := memagg.GenerateValues(nReadings, 11)

	// Holistic stream: the quantile view needs per-group value multisets.
	s := memagg.NewStream(memagg.StreamOptions{Shards: 1, SealRows: paneRows, Holistic: true})
	defer s.Close()

	// A sliding window always covers the last 4 panes; the tumbling
	// window accumulates a 4-pane bucket and drops it whole.
	for _, v := range []memagg.ViewSpec{
		{Name: "active-sensors", Query: "q1", PaneRows: paneRows, Panes: 4, Sliding: true},
		{Name: "p95-hourly", Query: "quantile", P: 0.95, PaneRows: paneRows, Panes: 4},
	} {
		if err := s.RegisterView(v); err != nil {
			log.Fatal(err)
		}
	}

	for off := 0; off < nReadings; off += paneRows {
		if err := s.AppendChunk(memagg.Chunk{
			Keys: sensorIDs[off : off+paneRows],
			Vals: readings[off : off+paneRows],
		}); err != nil {
			log.Fatal(err)
		}
		if err := s.Flush(); err != nil { // seal: both views absorb the pane
			log.Fatal(err)
		}

		counts, err := s.View("active-sensors")
		if err != nil {
			log.Fatal(err)
		}
		p95, err := s.View("p95-hourly")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pane %d: sliding window (%7d, %7d] %d sensors | tumbling p95 window (%7d, %7d] over %d rows\n",
			off/paneRows, counts.WindowStart, counts.WindowEnd, counts.Groups,
			p95.WindowStart, p95.WindowEnd, p95.Rows)
	}

	// Final reads: the sliding window holds the last 4 panes, the
	// tumbling window restarted on pane 4 and holds the current bucket.
	counts, _ := s.View("active-sensors")
	top := counts.Value.([]memagg.GroupCount)[0]
	fmt.Printf("\nsliding count window covers rows (%d, %d]; first group: sensor %d seen %d times\n",
		counts.WindowStart, counts.WindowEnd, top.Key, top.Count)
	for _, info := range s.Views() {
		fmt.Printf("view %-15s %-14s live=%d evicted=%d watermark=%d\n",
			info.Name, info.Query, info.PanesLive, info.PanesEvicted, info.Watermark)
	}
}
