// ISP load balance: reproduce the paper's §VII-A analysis of the EU2
// network (Fig 11), whose ISP hosts a YouTube data center inside its
// own AS. At night the internal data center serves essentially all
// requests; at daytime its capacity saturates and adaptive DNS-level
// load balancing sends most resolutions to an external Google data
// center. The example also runs the ablation: with DNS load balancing
// disabled, the diurnal signature disappears.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	ytcdn "github.com/ytcdn-sim/ytcdn"
	"github.com/ytcdn-sim/ytcdn/internal/core"
)

func main() {
	log.SetFlags(0)

	study, err := ytcdn.Run(ytcdn.Options{Scale: 0.15, Span: 7 * 24 * time.Hour})
	if err != nil {
		log.Fatal(err)
	}
	fig11, err := study.Experiments().Fig11EU2Diurnal()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("EU2: hourly fraction of video flows served by the in-ISP data center")
	fmt.Println("(one row per day, one column per hour; #=local, .=spilled)")
	for day := 0; day < 7; day++ {
		var row strings.Builder
		for h := 0; h < 24; h++ {
			idx := day*24 + h
			if idx >= len(fig11.LocalFrac) || fig11.LocalFrac[idx] < 0 {
				row.WriteByte(' ')
				continue
			}
			switch {
			case fig11.LocalFrac[idx] > 0.8:
				row.WriteByte('#')
			case fig11.LocalFrac[idx] > 0.5:
				row.WriteByte('+')
			default:
				row.WriteByte('.')
			}
		}
		fmt.Printf("  day %d |%s|\n", day+1, row.String())
	}
	day, night := fig11.DayNightLocalFrac()
	fmt.Printf("\nmean local fraction: night %.2f, evening peak %.2f (paper: ~1.0 vs ~0.3)\n", night, day)

	// Ablation: switch DNS-level load balancing off.
	pol := core.DefaultPaperPolicy()
	pol.DNSLoadBalancing = false
	ablated, err := ytcdn.Run(ytcdn.Options{Scale: 0.15, Span: 7 * 24 * time.Hour, Policy: pol})
	if err != nil {
		log.Fatal(err)
	}
	fig11Off, err := ablated.Experiments().Fig11EU2Diurnal()
	if err != nil {
		log.Fatal(err)
	}
	dayOff, nightOff := fig11Off.DayNightLocalFrac()
	fmt.Printf("ablation (no DNS load balancing): night %.2f, peak %.2f — the gap collapses\n",
		nightOff, dayOff)
}
