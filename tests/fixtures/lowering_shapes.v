// Shapes the bytecode lowering must handle with static widths: nested
// concat lvalues (blocking in a comb block, nonblocking in a clocked
// process), a 128-bit `for` loop variable, and constant part-selects and
// replications of parameters. CI diffs
// `hwdbg sim tests/fixtures/lowering_shapes.v --cycles 16` against
// lowering_shapes.golden.
module lowering_shapes(input clk);
  parameter [15:0] P = 16'hA5C3;
  parameter [7:0] Q = 8'h3C;
  localparam [99:0] WP = 100'h9_0123_4567_89AB_CDEF_0123_4567;
  reg [7:0] cnt;
  reg [127:0] i;
  reg [127:0] acc;
  reg [3:0] a, b;
  reg [5:0] c;
  reg [2:0] d;
  reg [69:0] e;
  reg [3:0] f, g;
  reg [9:0] h;
  reg [7:0] k;
  reg [1:0] m;
  // Blocking nested concat lvalue in a combinational block.
  always @(*) begin
    {{a, b}, c} = {cnt, cnt[5:0] ^ P[13:8]};
    {d, {e[69:4], {m, k[7:4]}}} = {cnt, {2{{cnt, P}}}, WP[73:55]};
  end
  always @(posedge clk) begin
    cnt <= cnt + 8'd13;
    // Nonblocking nested concat lvalue.
    {{f, g}, {h[9:2], h[1:0]}} <= {cnt, {3{Q[1:0]}}, P[3:0], cnt[1:0]};
    // A 128-bit loop variable stepping past the 64-bit boundary.
    acc = 128'd0;
    for (i = 128'hFFFF_FFFF_FFFF_FFFD; i < 128'h1_0000_0000_0000_0003; i = i + 128'd1)
      acc = acc + i + {120'd0, cnt};
    $display("cnt=%h a=%h b=%h c=%h d=%h e=%h k=%h m=%h", cnt, a, b, c, d, e, k, m);
    $display("f=%h g=%h h=%h acc=%h i=%h", f, g, h, acc, i);
    $display("P[11:4]=%h {4{Q[3:0]}}=%h WP[99:36]=%h {2{P}}=%h", P[11:4], {4{Q[3:0]}}, WP[99:36], {2{P}});
  end
endmodule
