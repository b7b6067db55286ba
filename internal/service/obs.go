package service

import "repro/internal/obs"

// Instrument registers the service's metric families on reg (nil = no-op),
// making latency-SLO health a first-class scrape signal alongside power:
//
//	service_requests_total{class,op}   completed requests
//	service_slo_miss_total{class,op}   requests that exceeded their SLO
//	service_latency_us{class,op,q}     latency quantiles (q = p50/p99/p999)
//	service_class_rate_rps{class}      last window's aggregate arrival rate
//	service_windows_total              closed accounting windows
//
// All families are scrape-time collectors over the mutex-guarded accounting
// state, so a live /metrics scrape never races the simulation thread, and
// each sees every closed window (see lock).
func (s *Service) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector("service_requests_total",
		"Completed interactive requests by client class and operation.",
		obs.TypeCounter, []string{"class", "op"}, func(emit obs.Emit) {
			s.lock()
			defer s.mu.Unlock()
			for ci, cs := range s.classes {
				for oi, op := range s.ops {
					emit([]string{cs.cfg.Name, op.Name}, float64(s.served[ci][oi]))
				}
			}
		})
	reg.RegisterCollector("service_slo_miss_total",
		"Requests that exceeded their latency SLO, by client class and operation.",
		obs.TypeCounter, []string{"class", "op"}, func(emit obs.Emit) {
			s.lock()
			defer s.mu.Unlock()
			for ci, cs := range s.classes {
				for oi, op := range s.ops {
					emit([]string{cs.cfg.Name, op.Name}, float64(s.sloMisses[ci][oi]))
				}
			}
		})
	reg.RegisterCollector("service_latency_us",
		"Request latency quantiles in microseconds, by client class and operation.",
		obs.TypeGauge, []string{"class", "op", "q"}, func(emit obs.Emit) {
			s.lock()
			defer s.mu.Unlock()
			for ci, cs := range s.classes {
				for oi, op := range s.ops {
					h := s.hist[ci][oi]
					if h.Count() == 0 {
						continue
					}
					emit([]string{cs.cfg.Name, op.Name, "p50"}, h.Quantile(0.50))
					emit([]string{cs.cfg.Name, op.Name, "p99"}, h.Quantile(0.99))
					emit([]string{cs.cfg.Name, op.Name, "p999"}, h.Quantile(0.999))
				}
			}
		})
	reg.RegisterCollector("service_class_rate_rps",
		"Aggregate arrival rate (requests/s) each client class carried in the last closed window.",
		obs.TypeGauge, []string{"class"}, func(emit obs.Emit) {
			s.lock()
			defer s.mu.Unlock()
			for _, cs := range s.classes {
				emit([]string{cs.cfg.Name}, cs.rateRPS)
			}
		})
	reg.RegisterCollector("service_windows_total",
		"Closed request-accounting windows.",
		obs.TypeCounter, nil, func(emit obs.Emit) {
			s.lock()
			defer s.mu.Unlock()
			emit(nil, float64(s.windowIdx))
		})
}
