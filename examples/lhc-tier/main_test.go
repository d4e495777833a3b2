package main

// Example runs the program and checks its whole output: the run is
// seeded, so any change to a printed number shows here.
func Example() {
	main()
	// Output:
	// T0 -> T1 replication vs uplink capacity (30 runs, 4 T1 centres)
	// link Gbps  delivered %  backlog  worst delay s  verdict
	// ---------  -----------  -------  -------------  ------------
	// 0.622      0.0          120      0.0            INSUFFICIENT
	// 1.25       0.0          120      0.0            INSUFFICIENT
	// 2.5        23.3         92       566.7          INSUFFICIENT
	// 10         100.0        0        31.9           sufficient
	// 30         100.0        0        6.4            sufficient
	//
	// Delivery vs link capacity (Gbps)
	//        100 +------------------------------------------------
	//            |               *                               *
	//            |
	//            |
	//            |
	//            |
	//            |
	//            |
	//            |
	//            |
	//            |   *
	//            |
	//            |**
	//          0 +------------------------------------------------
	//             0.622                                         30
	//             * = delivered %
	//
	// Full tier-model run (production + reconstruction + analysis)
	// metric                value
	// --------------------  -----
	// RAW produced          10
	// replicas shipped      40
	// reconstruction jobs   10
	// analysis jobs         30
	// mean analysis time s  4.847
	// DB queries            30
	// WAN GB moved          82
}
