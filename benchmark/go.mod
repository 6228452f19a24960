module shoal/benchmark

go 1.24

require shoal v0.0.0

replace shoal => ../
