module toc/benchmark

go 1.24

require toc v0.0.0

replace toc => ../
