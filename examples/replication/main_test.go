package main

// Example runs the program and checks its whole output: the run is
// seeded, so any change to a printed number shows here.
func Example() {
	main()
	// Output:
	// Replication strategy comparison (5 sites, 80 files, 200 jobs)
	// zipf s  strategy       hit ratio  WAN GB  mean job s
	// ------  -------------  ---------  ------  ----------
	// 0.0     none           0.000      600.0   5822.3
	// 0.0     pull-lru       0.092      545.0   4058.6
	// 0.0     pull-economic  0.087      548.0   3986.2
	// 0.0     push           0.170      500.0   2783.3
	// 0.4     none           0.000      600.0   5822.3
	// 0.4     pull-lru       0.085      549.0   4149.0
	// 0.4     pull-economic  0.097      542.0   4073.3
	// 0.4     push           0.240      472.0   2041.9
	// 0.8     none           0.000      600.0   5822.3
	// 0.8     pull-lru       0.188      487.0   3413.5
	// 0.8     pull-economic  0.227      464.0   3241.5
	// 0.8     push           0.265      470.0   2444.2
	// 1.2     none           0.000      600.0   5822.3
	// 1.2     pull-lru       0.345      393.0   2756.9
	// 1.2     pull-economic  0.353      388.0   2708.8
	// 1.2     push           0.360      432.0   1636.0
	// 1.6     none           0.000      600.0   5822.3
	// 1.6     pull-lru       0.488      307.0   2135.6
	// 1.6     pull-economic  0.495      303.0   2139.1
	// 1.6     push           0.455      408.0   1211.4
	//
	// Local hit ratio vs Zipf skew
	//     0.4883 +------------------------------------------------
	//            |                                               o
	//            |                                               +
	//            |
	//            |                                   +
	//            |                                   o
	//            |
	//            |           +           +
	//            |                       o
	//            |+
	//            |o
	//            |           o
	//            |*          *           *           *           *
	//          0 +------------------------------------------------
	//             0                                            1.6
	//             * = none
	//             o = pull-lru
	//             + = push
}
