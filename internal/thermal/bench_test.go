package thermal

import (
	"fmt"
	"testing"

	"darksim/internal/floorplan"
)

// BenchmarkThermalSolve measures a cold steady-state solve — model
// construction, the direct factorization and one solve — on a 100-core
// platform (364 nodes, below the node gate) and a 576-core one (1316
// nodes, above it).
func BenchmarkThermalSolve(b *testing.B) {
	for _, side := range []int{10, 24} {
		b.Run(fmt.Sprintf("cores=%d", side*side), func(b *testing.B) {
			fp, err := floorplan.NewGrid(side, side, 5.1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := DefaultConfig(fp.DieW, fp.DieH, side, side)
			p := make([]float64, side*side)
			for i := range p {
				p[i] = 2
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := NewModel(fp, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.SteadyState(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
