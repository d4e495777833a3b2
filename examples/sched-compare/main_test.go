package main

// Example runs the program and checks its whole output: the run is
// seeded, so any change to a printed number shows here.
func Example() {
	main()
	// Output:
	// Local queue disciplines (8 cores, 300 mixed jobs)
	// discipline     mean wait s  mean response s  makespan s  utilization
	// -------------  -----------  ---------------  ----------  -----------
	// fcfs           34.98        42.41            561.3       0.6915
	// sjf            7.187        14.62            543         0.7148
	// edf            34.98        42.41            561.3       0.6915
	// easy-backfill  12.09        19.52            492.9       0.7875
	//
	// Brokering policies (3 heterogeneous sites, 200 jobs)
	// policy        mean response s  makespan s
	// ------------  ---------------  ----------
	// round-robin   8.706            131
	// least-loaded  2.663            105.4
	// mct           0.9815           97.91
	//
	// Economy brokering (deadline+budget, 200 gridlets)
	// goal           mean response s  total spend  rejected  deadline misses
	// -------------  ---------------  -----------  --------  ---------------
	// time-optimize  0.5194           1032         0         0
	// cost-optimize  4.07             828.2        0         0
}
