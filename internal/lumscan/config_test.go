package lumscan

import (
	"testing"
)

func TestCrossProductShape(t *testing.T) {
	tasks := CrossProduct(3, 2)
	if len(tasks) != 6 {
		t.Fatalf("len = %d", len(tasks))
	}
	// Grouped by country so one worker keeps one session.
	if tasks[0].Country != 0 || tasks[3].Country != 1 {
		t.Fatalf("ordering wrong: %+v", tasks)
	}
	if CrossProduct(0, 5) == nil {
		// Empty is fine, but must not panic.
		t.Log("empty cross product")
	}
}

func TestDefaultConfigValues(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Samples != 3 || cfg.Phase != "initial" {
		t.Fatalf("default samples = %d phase = %q", cfg.Samples, cfg.Phase)
	}
	if cfg.Headers["Accept-Language"] == "" {
		t.Fatal("browser header set incomplete")
	}
}

func TestZGrabHeadersAreCrawlerLike(t *testing.T) {
	h := ZGrabHeaders()
	if h["Accept"] != "" || h["Accept-Language"] != "" {
		t.Fatal("ZGrab set must be bare")
	}
	if h["User-Agent"] == "" {
		t.Fatal("ZGrab still sets a UA (§3.1)")
	}
}

func TestSampleOKSemantics(t *testing.T) {
	s := Sample{Err: ErrNone, Status: 200}
	if !s.OK() {
		t.Fatal("ok sample misreported")
	}
	s.Err = ErrTimeout
	if s.OK() {
		t.Fatal("failed sample misreported")
	}
}
