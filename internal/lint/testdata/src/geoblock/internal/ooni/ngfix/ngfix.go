// Fixture: the nakedgo analyzer inside the OONI synthesis
// (geoblock/internal/ooni/...). The volunteer fleet probes the
// simulated web like any scan, so its loop over countries runs on
// scanner.Each. A goroutine per country behind a semaphore, drained by
// counting sends on a done channel, has no drain tie: one early return
// leaves the count short and the caller blocked for good.
package ngfix

import "sync"

// The semaphore-and-done-channel fan-out is the violation.
func measureAll(countries []string, limit int, measure func(string)) {
	sem := make(chan struct{}, limit)
	done := make(chan int)
	for ci := range countries {
		go func(ci int) { // want "naked goroutine in the scan path"
			sem <- struct{}{}
			defer func() { <-sem }()
			measure(countries[ci])
			done <- ci
		}(ci)
	}
	for range countries {
		<-done
	}
}

// A named-function launch offers no drain tie at all.
func measureAsync(measure func()) {
	go measure() // want "goroutine launch in the scan path"
}

// The sanctioned shape, the one scanner.Each runs: every worker tied
// to a WaitGroup the caller waits on.
func measureEach(countries []string, measure func(string)) {
	var wg sync.WaitGroup
	for _, cc := range countries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			measure(cc)
		}()
	}
	wg.Wait()
}
